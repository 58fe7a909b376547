package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"nimblock/internal/trace"
)

// errWriter fails every write; errCloser also fails Close.
type errWriter struct{ err error }

func (w errWriter) Write([]byte) (int, error) { return 0, w.err }

type errCloser struct {
	bytes.Buffer
	closeErr error
	closed   bool
}

func (c *errCloser) Close() error {
	c.closed = true
	return c.closeErr
}

func TestJSONLFlushAndErr(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Observe(trace.Event{Kind: trace.KindArrival, AppID: 1})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatal("line escaped the buffer before Flush")
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"arrival"`) {
		t.Fatalf("flushed %q", buf.String())
	}
	// A plain writer is not closed; Close only flushes.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONLStickyWriteError(t *testing.T) {
	boom := errors.New("disk full")
	// The bufio layer defers the failure until the buffer spills or is
	// flushed; after that every entry point reports the first error.
	j := NewJSONL(errWriter{boom})
	j.Observe(trace.Event{Kind: trace.KindArrival, AppID: 1})
	if err := j.Flush(); !errors.Is(err, boom) {
		t.Fatalf("flush error %v, want %v", err, boom)
	}
	if err := j.Err(); !errors.Is(err, boom) {
		t.Fatalf("sticky error %v, want %v", err, boom)
	}
	j.Observe(trace.Event{Kind: trace.KindRetire, AppID: 1}) // suppressed
	if err := j.Flush(); !errors.Is(err, boom) {
		t.Fatalf("error not sticky across Flush: %v", err)
	}
	if err := j.Close(); !errors.Is(err, boom) {
		t.Fatalf("close error %v, want %v", err, boom)
	}
}

func TestJSONLClosesCloser(t *testing.T) {
	c := &errCloser{}
	j := NewJSONL(c)
	j.Observe(trace.Event{Kind: trace.KindArrival, AppID: 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if !c.closed {
		t.Fatal("underlying closer not closed")
	}
	if !strings.Contains(c.String(), `"arrival"`) {
		t.Fatalf("close did not flush: %q", c.String())
	}

	c = &errCloser{closeErr: errors.New("already gone")}
	j = NewJSONL(c)
	if err := j.Close(); err == nil {
		t.Fatal("close error swallowed")
	}
}
