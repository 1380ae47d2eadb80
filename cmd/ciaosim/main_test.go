package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/harness"
	"repro/internal/service"
)

// outputs pins the SHA-256 of ciaosim's output for every experiment of
// the table at -instr 300 -seed 7 (timeseries: -bench ATAX -sched
// GTO,CCWS), as text and with -json. Every form the CLI had before the
// table existed was captured from that code and holds byte for byte:
// 15 text views and 12 JSON payloads. The forms the table added are
// pinned as first produced: timeseries's text, the JSON of fig1a,
// table1, table2 and chip, and chip's text at seed 7, which moved
// when chip began honouring -seed (TestChipHonoursSeed).
var outputs = map[string]struct{ text, json string }{
	"run": {
		"6c20ef160b0a75b11a94b530555c98129980417a8d9ba2b4fc7cebda9bbd1327",
		"975829fb27693f1744022b9d1c56103fdc7fdcf4403e0a7eb14695cc267596f3"},
	"timeseries": {
		"af4f2a1363a3af828de377fd5bd031fb273d42b501672ab68ef7bb77662fc952",
		"5be1012aba222f5bbfa9d9a4a0d51e0f1e9ba5eb114d1b4c9716b32ce482fb2d"},
	"fig1a": {
		"30fc67b5da1ef43b5c3d9bb979e31bee504ddaabfac6079c31c26ec5922a41d2",
		"e4193a91e429f10f6d59fb16a7117f5be81bf9b74fccb1c409bd109f4be2fd8d"},
	"fig1b": {
		"7308f549b0a20258c2c2e9baab830c56af199ba53adb3150c72c8dacbb277ce6",
		"8819e76c784a0001bd9776687f72326b44f74053176f46baa0ed158c65c7d559"},
	"fig4": {
		"ce6a6a24524d01552b8d93736d27a5253a98b903c8d181ca8c948515c2676379",
		"6c7bcc0b38c53b84c42d0bb18dfd868df6287bbfa0365c238f5323828b670796"},
	"fig8": {
		"52e4a8ba127c2b689f17be42526de66f8a76c7bfa341a323270040f6ddc79e16",
		"e73e0470204314c11143401c0b3b6c7606e0ca5fe6870a7227371753477fed22"},
	"fig9": {
		"86f8a5a099ed667bd465330cec3c8839eda8c133a9a8f68271c02b121d7aff63",
		"e43d12d4df957b15ed94886562e234cd1c0e1665df5e7aa7998a528f6e251f14"},
	"fig10": {
		"ef8b99848311703023fdf468d5b149ccb74cb3b242e34039656301372dd75c86",
		"ec4a275c505de8195582ce776283dd3d316bc0482fd621897ffb475584d72149"},
	"fig11a": {
		"b48283c83fccf85a1d054b07ebdd2c09465b5f5714ca27ad1faa7e4d05879cfa",
		"43d884f3641e2ddbbc7be562318e45bb0dab7fc42474ae331c6b5b31d66fd164"},
	"fig11b": {
		"a07408c14b3b24d2bfb5a93c43e4b593829ade6fba2de88cbb95d5cf83765300",
		"ca45cd306a9bc290e5c4788d893043865a87972ca7e9a9e3a0a2595ec919276f"},
	"fig12a": {
		"427acf36435d76223890f4d360cd02a6f49b2ee7362ee4b5a7d5b59aa0800f9b",
		"02dd8805e85dc4ff22a4caedc9de170445faa3cfa21a06f813c1176392f0fa65"},
	"fig12b": {
		"45ee341e54e8fe4c5e9658014b50be1f09b96d66168cff576bb626e09a8cf635",
		"6ba50a58d7b3610fe34fff4ea21ee2e3ff74ea3d4724c8ef00217a3051537a25"},
	"table1": {
		"f9e0056146e0315bb2075bb7b85c6c9921b6824ea107670f35ec8a65755840f6",
		"28007eeda0aa82c786f5626e2a9e228f7002ef6111357c4370e01178ce2031b1"},
	"table2": {
		"8c6641f63699f887f5adb1eb68e2d0ac863b1d511e09fd76cf7ee2e4bbeb81c5",
		"41adee444dab82ccf2601514f7c06e54a1536459c68dfe3f97bd3c750d796593"},
	"overhead": {
		"4e26f33383dee312dc866fd111661b2d518f3212b8dbe9419dc4f980aa235709",
		"dcdb36f5213fca4a32deb0546cbbcc596cd0f3e56195f33f8f83b38db0ebe321"},
	"chip": {
		"321cd7353f4ddd86b07f7fe27e528bd5322428dfe754910f3c33b9cff4fd4842",
		"537a22f3446a741ed9252f8ff9c8bbabab53a7ceb6cfa80373a70f5bb73e90b8"},
}

// ciaosim runs the command line args through run and returns what it
// printed.
func ciaosim(t *testing.T, e *service.Engine, args ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, e, &out); err != nil {
		t.Fatalf("ciaosim %v: %v", args, err)
	}
	return out.Bytes()
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestEveryExperimentBothForms walks the experiment table and checks
// that ciaosim prints every entry as text and as JSON, each matching
// its pinned hash. One engine serves every run, so a grid figure's
// JSON reuses the cells its text simulated.
func TestEveryExperimentBothForms(t *testing.T) {
	e := service.NewEngine(service.Config{})
	for _, exp := range harness.Experiments() {
		want, ok := outputs[exp.Name]
		if !ok {
			t.Errorf("%s: no pinned outputs", exp.Name)
			continue
		}
		args := []string{"-experiment", exp.Name, "-instr", "300", "-seed", "7"}
		if exp.Name == "timeseries" {
			args = append(args, "-bench", "ATAX", "-sched", "GTO,CCWS")
		}
		if got := sha(ciaosim(t, e, args...)); got != want.text {
			t.Errorf("%s text: sha256 %s, want %s", exp.Name, got, want.text)
		}
		if got := sha(ciaosim(t, e, append(args, "-json")...)); got != want.json {
			t.Errorf("%s -json: sha256 %s, want %s", exp.Name, got, want.json)
		}
	}
	if len(outputs) != len(harness.Experiments()) {
		t.Errorf("%d pinned experiments, table has %d", len(outputs), len(harness.Experiments()))
	}
}

// TestChipHonoursSeed: chip's cluster runs the seeded workload. At
// seed 0 (the suite's own seeds) its text is what chip printed when it
// ignored -seed, at every seed.
func TestChipHonoursSeed(t *testing.T) {
	e := service.NewEngine(service.Config{})
	at := func(seed string, extra ...string) []byte {
		return ciaosim(t, e, append([]string{"-experiment", "chip", "-instr", "300", "-seed", seed}, extra...)...)
	}
	const seedless = "50e7cd6ff45f3a659ab95369bf54bb573cf2b877b975ea4bf8691c56de81f6c1"
	if got := sha(at("0")); got != seedless {
		t.Errorf("chip text at seed 0: sha256 %s, want %s", got, seedless)
	}
	if bytes.Equal(at("0", "-json"), at("7", "-json")) {
		t.Error("chip payload at seed 7 equals the one at seed 0")
	}
}
