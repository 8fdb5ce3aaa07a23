package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// chromeTrace mirrors the file layout trace viewers expect.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestTracerEmitsValidChromeTrace: the full document must be valid JSON
// in the {"traceEvents":[...]} shape with microsecond complete events.
func TestTracerEmitsValidChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	start := time.Now()
	lane := tr.AcquireLane()
	tr.Complete("sweep", "point websearch @500MHz", lane, start, 42*time.Millisecond,
		map[string]any{"freq_hz": 5e8})
	tr.ReleaseLane(lane)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// metadata + complete
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Ph != "X" || ev.Name != "point websearch @500MHz" || ev.Cat != "sweep" {
		t.Fatalf("unexpected complete event: %+v", ev)
	}
	if ev.Dur < 41e3 || ev.Dur > 43e3 {
		t.Fatalf("dur = %v µs, want ~42000", ev.Dur)
	}
	if ev.Tid != lane {
		t.Fatalf("tid = %d, want lane %d", ev.Tid, lane)
	}
}

// TestTracerCompleteAtUsesSimulatedTime: a CompleteAt span's timestamp
// must be exactly the simulated offset, independent of when the tracer
// was created — that is the whole contract separating it from Complete.
func TestTracerCompleteAtUsesSimulatedTime(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.CompleteAt("serve", "cluster 0", 2, 3*time.Second, time.Second,
		map[string]any{"busy": 0.5})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	ev := doc.TraceEvents[1]
	if ev.Ph != "X" || ev.Cat != "serve" || ev.Tid != 2 {
		t.Fatalf("unexpected event: %+v", ev)
	}
	if ev.Ts != 3e6 || ev.Dur != 1e6 {
		t.Fatalf("ts/dur = %v/%v µs, want exactly 3e6/1e6", ev.Ts, ev.Dur)
	}
	var nilTracer *Tracer
	nilTracer.CompleteAt("serve", "noop", 0, 0, 0, nil) // must not panic
}

// TestTracerConcurrentEvents: events recorded from many goroutines must
// still form one valid JSON document (comma discipline under the mutex).
func TestTracerConcurrentEvents(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lane := tr.AcquireLane()
				tr.Complete("t", fmt.Sprintf("g%d-%d", g, i), lane, time.Now(), time.Microsecond, nil)
				tr.ReleaseLane(lane)
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("concurrent trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 1+8*50 {
		t.Fatalf("got %d events, want %d", len(doc.TraceEvents), 1+8*50)
	}
}

// TestLaneAllocatorReusesSmallestFree: released lanes must be reused so
// the trace does not sprout an unbounded number of tracks.
func TestLaneAllocatorReusesSmallestFree(t *testing.T) {
	tr := NewTracer(&bytes.Buffer{})
	a, b, c := tr.AcquireLane(), tr.AcquireLane(), tr.AcquireLane()
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("lanes = %d,%d,%d, want 1,2,3", a, b, c)
	}
	tr.ReleaseLane(b)
	if got := tr.AcquireLane(); got != b {
		t.Fatalf("reacquired lane = %d, want released lane %d", got, b)
	}
}

// failAfter errors once n bytes have been written — a stand-in for a
// full disk or a closed file.
type failAfter struct {
	n       int
	written int
}

func (f *failAfter) Write(b []byte) (int, error) {
	f.written += len(b)
	if f.written > f.n {
		return 0, errors.New("disk full")
	}
	return len(b), nil
}

// TestTracerWriteErrorIsStickyNotPanic: a failing trace file must
// surface as an error from Close — never a panic, never silent success —
// and later events must be dropped cleanly.
func TestTracerWriteErrorIsStickyNotPanic(t *testing.T) {
	tr := NewTracer(&failAfter{n: 40})
	for i := 0; i < 10; i++ {
		tr.Complete("t", "ev", 1, time.Now(), time.Millisecond, nil)
	}
	err := tr.Close()
	if err == nil {
		t.Fatal("Close must report the write failure")
	}
	if !errors.Is(err, err) || err.Error() == "" {
		t.Fatalf("unusable error: %v", err)
	}
}

// TestTracerEventAfterCloseDropped: recording after Close is a silent
// no-op (drivers may race a final event against shutdown), and Close is
// idempotent.
func TestTracerEventAfterCloseDropped(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	before := buf.Len()
	tr.Complete("t", "late", 1, time.Now(), time.Millisecond, nil)
	if buf.Len() != before {
		t.Fatal("event after Close must not write")
	}
	if err := tr.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("closed trace invalid: %v", err)
	}
}

// TestProgressOutput: the reporter must count up to the announced total
// and include the label; ETA formatting is free-form but present.
func TestProgressOutput(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	p.Add(2)
	p.Done("websearch @500MHz", 10*time.Millisecond)
	p.Done("websearch @1000MHz", 12*time.Millisecond)
	out := buf.String()
	for _, want := range []string{"[1/2]", "[2/2]", "websearch @500MHz", "eta"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("progress output missing %q:\n%s", want, out)
		}
	}
}

// slowWriter makes interleaving likely by yielding mid-write.
type slowWriter struct {
	buf bytes.Buffer
}

func (w *slowWriter) Write(b []byte) (int, error) {
	for _, c := range b {
		w.buf.WriteByte(c)
	}
	return len(b), nil
}

// TestSyncWriterSerializesWrites: concurrent line writes through a
// SyncWriter must never interleave mid-line.
func TestSyncWriterSerializesWrites(t *testing.T) {
	under := &slowWriter{}
	w := NewSyncWriter(under)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			line := bytes.Repeat([]byte{'a' + byte(g)}, 64)
			line = append(line, '\n')
			for i := 0; i < 100; i++ {
				if _, err := w.Write(line); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, line := range bytes.Split(bytes.TrimSuffix(under.buf.Bytes(), []byte{'\n'}), []byte{'\n'}) {
		if len(line) != 64 {
			t.Fatalf("interleaved line: %q", line)
		}
		for _, c := range line {
			if c != line[0] {
				t.Fatalf("interleaved line: %q", line)
			}
		}
	}
}
