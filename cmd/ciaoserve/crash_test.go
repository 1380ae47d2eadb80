package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sweep"
)

// childEnv makes the test binary run as ciaoserve itself, so the kill -9
// check below drives the real main: flags, recovery, listener.
const childEnv = "CIAOSERVE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// crashSpec is eight real cells. At 4000 instr/warp a cell simulates in
// about 0.2 s on a 2-core host (several times that under -race), so the
// kill lands mid-sweep with a wide margin either way.
const crashSpec = `{
	"name": "kill9",
	"axes": {"schedulers": ["GTO", "CCWS"], "benchmarks": ["SYRK", "ATAX", "BICG", "KMN"]},
	"options": {"instr_per_warp": 4000, "seed": 7}
}`

// crashWait bounds every wait on a child; generous because -race slows
// simulation by an order of magnitude.
const crashWait = 2 * time.Minute

// child is one ciaoserve process.
type child struct {
	cmd *exec.Cmd
	url string
	log string // path of its combined output
}

// startChild runs ciaoserve on a free loopback port over sweepDir, with
// one simulation slot, and waits until it answers /healthz.
func startChild(t *testing.T, sweepDir string) *child {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	logPath := filepath.Join(t.TempDir(), "ciaoserve.log")
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	cmd := exec.Command(os.Args[0], "-addr", addr, "-sweepdir", sweepDir, "-workers", "1")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &child{cmd: cmd, url: "http://" + addr, log: logPath}
	t.Cleanup(c.kill)
	c.waitFor(t, "/healthz", func() bool {
		resp, err := http.Get(c.url + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	return c
}

// kill sends SIGKILL and reaps the process; safe to repeat.
func (c *child) kill() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// waitFor polls cond until crashWait passes, failing with the child's
// log.
func (c *child) waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(crashWait)
	for !cond() {
		if time.Now().After(deadline) {
			c.kill()
			out, _ := os.ReadFile(c.log)
			t.Fatalf("timed out waiting for %s; ciaoserve log:\n%s", what, out)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// status fetches one sweep's status; ok is false while it is unknown.
func (c *child) status(t *testing.T, id string) (st sweep.Status, ok bool) {
	t.Helper()
	resp, err := http.Get(c.url + "/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, true
}

// TestKill9ResumesSweep kills a real ciaoserve with SIGKILL mid-sweep,
// restarts it on the same -sweepdir, and checks that the sweep resumes
// under its original id and ends with exactly one ok record per cell,
// whose result payloads are byte-identical to an uninterrupted run.
func TestKill9ResumesSweep(t *testing.T) {
	var spec sweep.Spec
	if err := json.Unmarshal([]byte(crashSpec), &spec); err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sweepDir := t.TempDir()

	first := startChild(t, sweepDir)
	resp, err := http.Post(first.url+"/sweeps", "application/json", strings.NewReader(crashSpec))
	if err != nil {
		t.Fatal(err)
	}
	var started sweep.Status
	err = json.NewDecoder(resp.Body).Decode(&started)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps = %d, %v", resp.StatusCode, err)
	}
	first.waitFor(t, "a settled cell", func() bool {
		st, _ := first.status(t, started.ID)
		if st.Done+st.Failed >= len(cells) {
			t.Fatalf("sweep finished before the kill: %+v", st)
		}
		return st.Done+st.Failed >= 1
	})
	first.kill()

	recs, _, err := sweep.ReadRecords(started.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs) >= len(cells) {
		t.Fatalf("store holds %d records after the kill, want a strict partial sweep", len(recs))
	}

	// The uninterrupted control runs in-process while the restarted
	// server finishes.
	controlDir := filepath.Join(t.TempDir(), "control")
	var want map[string][]byte
	var wg sync.WaitGroup
	wg.Add(1)
	t.Cleanup(wg.Wait)
	go func() {
		defer wg.Done()
		st, err := sweep.Create(controlDir, "control", spec, len(cells))
		if err != nil {
			t.Error(err)
			return
		}
		defer st.Close()
		eng := service.NewEngine(service.Config{Workers: 1})
		if _, err := (&sweep.Runner{Engine: eng, Store: st}).Run(context.Background(), cells); err != nil {
			t.Error(err)
		}
		want = results(t, controlDir)
	}()

	second := startChild(t, sweepDir)
	var final sweep.Status
	second.waitFor(t, "the resumed sweep to finish", func() bool {
		st, ok := second.status(t, started.ID)
		final = st
		return ok && st.State != sweep.StateRunning
	})
	second.kill()
	if final.State != sweep.StateDone || final.Done != len(cells) || final.Skipped != len(recs) {
		t.Fatalf("resumed sweep = %+v, want done with the %d pre-kill cells skipped", final, len(recs))
	}

	got := results(t, started.Dir)
	wg.Wait()
	if len(got) != len(cells) || len(want) != len(cells) {
		t.Fatalf("results: resumed %d, control %d, want %d each", len(got), len(want), len(cells))
	}
	for key, payload := range want {
		if !bytes.Equal(got[key], payload) {
			t.Errorf("cell %.12s: resumed result differs from the uninterrupted run", key)
		}
	}
}

// results reads a store's records into key → result payload, failing on
// a duplicate key or a record that is not ok.
func results(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	recs, corrupt, err := sweep.ReadRecords(dir)
	if err != nil || corrupt != 0 {
		t.Errorf("ReadRecords(%s) = %d corrupt, %v", dir, corrupt, err)
	}
	out := map[string][]byte{}
	for _, rec := range recs {
		if _, dup := out[rec.Key]; dup {
			t.Errorf("%s: duplicate record for cell %.12s", dir, rec.Key)
		}
		if rec.Status != sweep.StatusOK {
			t.Errorf("%s: cell %.12s %s: %s", dir, rec.Key, rec.Status, rec.Error)
		}
		out[rec.Key] = rec.Result
	}
	return out
}
