package trace

import (
	"encoding/json"
	"fmt"

	"nimblock/internal/sim"
)

// jsonEvent is the interchange form of an Event. Dur/Progress carry
// checkpoint transfer time and captured progress; they are omitted when
// zero so pre-checkpoint exports parse unchanged.
type jsonEvent struct {
	At       sim.Time     `json:"at_us"`
	Kind     string       `json:"kind"`
	App      string       `json:"app"`
	AppID    int64        `json:"app_id"`
	Task     int          `json:"task"`
	Slot     int          `json:"slot"`
	Item     int          `json:"item"`
	Dur      sim.Duration `json:"dur_us,omitempty"`
	Progress sim.Duration `json:"progress_us,omitempty"`
}

// kindNames maps Kind to its interchange string and back. Iterating up
// to the kindCount sentinel guarantees newly added kinds are always part
// of the interchange vocabulary.
var kindNames = func() map[string]Kind {
	m := map[string]Kind{}
	for k := Kind(0); k < kindCount; k++ {
		m[k.String()] = k
	}
	return m
}()

func toJSON(e Event) jsonEvent {
	return jsonEvent{At: e.At, Kind: e.Kind.String(), App: e.App, AppID: e.AppID,
		Task: e.Task, Slot: e.Slot, Item: e.Item, Dur: e.Dur, Progress: e.Progress}
}

func fromJSON(raw jsonEvent, kind Kind) Event {
	return Event{At: raw.At, Kind: kind, App: raw.App, AppID: raw.AppID,
		Task: raw.Task, Slot: raw.Slot, Item: raw.Item, Dur: raw.Dur, Progress: raw.Progress}
}

// MarshalJSON exports the log for offline analysis or replay.
func (l *Log) MarshalJSON() ([]byte, error) {
	events := l.Events()
	out := make([]jsonEvent, len(events))
	for i, e := range events {
		out[i] = toJSON(e)
	}
	return json.Marshal(out)
}

// EventJSON returns the interchange form of one event — the same schema
// MarshalJSON uses for whole logs — for streaming exports that emit one
// object per event (e.g. the obs JSONL sink).
func EventJSON(e Event) any {
	return toJSON(e)
}

// ParseEventJSON decodes one interchange object produced by EventJSON,
// rejecting unknown kinds.
func ParseEventJSON(data []byte) (Event, error) {
	var raw jsonEvent
	if err := json.Unmarshal(data, &raw); err != nil {
		return Event{}, fmt.Errorf("trace: parsing event: %w", err)
	}
	kind, ok := kindNames[raw.Kind]
	if !ok {
		return Event{}, fmt.Errorf("trace: unknown kind %q", raw.Kind)
	}
	return fromJSON(raw, kind), nil
}

// ParseJSON imports a log previously exported with MarshalJSON.
func ParseJSON(data []byte) (*Log, error) {
	var raw []jsonEvent
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("trace: parsing log: %w", err)
	}
	l := New()
	for i, e := range raw {
		kind, ok := kindNames[e.Kind]
		if !ok {
			return nil, fmt.Errorf("trace: event %d has unknown kind %q", i, e.Kind)
		}
		l.Observe(fromJSON(e, kind))
	}
	return l, nil
}
