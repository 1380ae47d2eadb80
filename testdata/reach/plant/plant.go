// Package plant holds three things the reachability guard must report,
// beside controls it must let pass; cmd/use is their one user, and
// plant_test.go calls what only tests call.
package plant

import (
	"encoding/json"
	"fmt"
)

// Tally counts events.
type Tally struct {
	Hits   int    // read by Report: passes
	Misses int    // written only: reported
	spills int    // written only: reported
	Label  string `json:"label"` // written only, read by encoding/json: passes
	// Peak is written only; it is kept for tests: passes.
	Peak int
}

// Record counts one event.
func (t *Tally) Record(hit bool) {
	if hit {
		t.Hits++
	} else {
		t.Misses++
		t.spills += 1
	}
	t.Peak = t.Hits
}

// Report renders the count.
func (t *Tally) Report() string { return fmt.Sprint(t.Hits) }

// Kind's String method is called by tests only: reported.
type Kind int

func (k Kind) String() string { return "kind" }

// Level's String method passes: fmt reaches it through a conversion to
// a variadic any.
type Level int

func (l Level) String() string { return "level" }

// Doc's MarshalJSON method passes: encoding/json reaches it through the
// generic type argument of Encode.
type Doc struct{}

func (Doc) MarshalJSON() ([]byte, error) { return []byte(`"doc"`), nil }

// Encode returns v's JSON encoding.
func Encode[T any](v T) ([]byte, error) { return json.Marshal(v) }
