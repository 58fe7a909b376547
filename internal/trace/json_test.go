package trace

import (
	"fmt"
	"strings"
	"testing"

	"nimblock/internal/sim"
)

// Every defined kind must survive a JSON export/import cycle. Iterating
// to the kindCount sentinel means a newly added kind that is missing a
// String case (or was added below the sentinel) fails here instead of
// being silently dropped from exports.
func TestJSONRoundTripsEveryKind(t *testing.T) {
	l := New()
	for k := Kind(0); k < kindCount; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Fatalf("kind %d has no String case: %q", int(k), k.String())
		}
		l.Observe(Event{At: sim.Time(int64(k) + 1), Kind: k, App: "a", AppID: 7, Task: int(k), Slot: 1, Item: -1})
	}
	data, err := l.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != l.Len() {
		t.Fatalf("round trip lost events: %d -> %d", l.Len(), back.Len())
	}
	for i, e := range back.Events() {
		if e != l.Events()[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, l.Events()[i])
		}
	}
}

func TestParseJSONRejectsUnknownKind(t *testing.T) {
	if _, err := ParseJSON([]byte(`[{"kind":"no-such-kind"}]`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ParseJSON([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	// The sentinel itself must not be exportable vocabulary.
	if _, err := ParseJSON([]byte(fmt.Sprintf(`[{"kind":%q}]`, kindCount.String()))); err == nil {
		t.Fatal("kindCount sentinel accepted as a kind")
	}
}
