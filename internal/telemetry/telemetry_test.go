package telemetry

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestSpanTree covers the span lifecycle: children, completed records,
// remote attachment, attribute overwrite, and snapshot ordering by start
// time.
func TestSpanTree(t *testing.T) {
	tr := NewTrace("req")
	root := tr.Root()

	late := root.StartChild("late")
	time.Sleep(time.Millisecond)
	early := root.StartChild("second")
	early.SetAttr("k", "v1")
	early.SetAttr("k", "v2") // overwrite, not duplicate
	early.End()
	late.End()
	root.Record("recorded", tr.start, time.Now())
	root.Attach(SpanData{Name: "remote mine1", StartUnixNano: tr.start.UnixNano()})

	td := tr.Finish()
	if td.TraceID != tr.ID() || td.Name != "req" {
		t.Errorf("TraceData header: %+v", td)
	}
	if got := td.Root.SpanCount(); got != 5 {
		t.Errorf("SpanCount = %d, want 5", got)
	}
	sec, ok := td.Root.Find("second")
	if !ok || sec.Attrs["k"] != "v2" {
		t.Errorf("attr overwrite: %+v", sec)
	}
	if _, ok := td.Root.Find("remote mine1"); !ok {
		t.Error("attached remote span missing from snapshot")
	}
	// Children sorted by start time: "late" started before "second".
	kids := td.Root.Children
	idx := map[string]int{}
	for i, c := range kids {
		idx[c.Name] = i
	}
	if idx["late"] > idx["second"] {
		t.Errorf("children not in start order: %v", kids)
	}
}

// TestNilSafety: every method on nil spans/traces is a no-op — the
// property that lets instrumented code skip enablement guards entirely.
func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Root() != nil {
		t.Error("nil trace leaked state")
	}
	tr.Finish()

	var s *Span
	if c := s.StartChild("x"); c != nil {
		t.Error("nil span produced a child")
	}
	s.Record("x", time.Now(), time.Now())
	s.End()
	s.SetAttr("k", "v")
	s.Attach(SpanData{})
	if s.TraceID() != "" {
		t.Error("nil span has a trace ID")
	}
}

// TestUnfinishedSpanMarked: a span still open at snapshot time reports its
// duration so far and carries the "unfinished" marker.
func TestUnfinishedSpanMarked(t *testing.T) {
	tr := NewTrace("req")
	tr.Root().StartChild("stuck") // never ended
	td := tr.Finish()
	stuck, ok := td.Root.Find("stuck")
	if !ok || stuck.Attrs["unfinished"] != "true" {
		t.Errorf("open span not marked unfinished: %+v", stuck)
	}
}

// TestContextPropagation: StartSpan nests under the context span and
// returns (ctx, nil) untouched without one.
func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if got, sp := StartSpan(ctx, "x"); got != ctx || sp != nil {
		t.Error("StartSpan without a parent must be a no-op")
	}

	tr := NewTrace("req")
	ctx = ContextWithSpan(ctx, tr.Root())
	ctx2, sp := StartSpan(ctx, "phase1")
	if sp == nil || SpanFromContext(ctx2) != sp {
		t.Fatal("StartSpan did not thread the child through the context")
	}
	sp.End()
	if _, ok := tr.Finish().Root.Find("phase1"); !ok {
		t.Error("context-started span missing from the trace")
	}
}

// TestRender smoke-tests the -trace output shape: indentation and
// durations.
func TestRender(t *testing.T) {
	tr := NewTrace("umine UApriori")
	tr.Root().StartChild("level 1").End()
	td := tr.Finish()
	var sb strings.Builder
	td.Root.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "umine UApriori") || !strings.Contains(out, "  level 1") || !strings.Contains(out, "ms") {
		t.Errorf("Render output:\n%s", out)
	}
}
