package plant

import "testing"

func TestKindString(t *testing.T) {
	if got := Kind(1).String(); got != "kind" {
		t.Errorf("String = %q", got)
	}
}
