package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/exps"
	"repro/internal/fib"
	"repro/internal/wire"
)

// TestStreamDeterministic pins that a seed fixes the generated stream
// byte for byte, with the declared sizes, and that another seed changes
// it (send order, flapped links, what-if pairs and prefixes).
func TestStreamDeterministic(t *testing.T) {
	want := map[string]Sizes{
		"storm-ecmp": {Devices: 96, Epochs: 1, Messages: 96, Updates: 15504},
		"linkflap":   {Devices: 28, Epochs: 200, Messages: 5600, Updates: 6640},
	}
	for name, sizes := range want {
		a, err := Generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Generate(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.Hash() != b.Hash() {
			t.Errorf("%s: seed 7 generated two different streams", name)
		}
		if a.Hash() == c.Hash() {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
		if got := a.Sizes(); got != sizes {
			t.Errorf("%s: sizes %+v, want %+v", name, got, sizes)
		}
	}
}

// runOnce serves a stream once over loopback and returns the tally.
func runOnce(t *testing.T, s *Stream) *outcome {
	t.Helper()
	bodies := make([][]byte, len(s.Queries))
	for i, q := range s.Queries {
		var err error
		if bodies[i], err = whatIfBody(q); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	o := &outcome{}
	r := &rep{s: s, bodies: bodies, o: o}
	if err := r.run(ctx); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestChecksCatchWrongTruth runs a small linkflap stream once as
// generated (every check passes) and then against deliberately wrong
// expectations: inverted what-if truths, and a loop planted in the
// final epoch's FIBs, which the loop check must report.
func TestChecksCatchWrongTruth(t *testing.T) {
	s, err := genFlap("linkflap", exps.FabricFor(exps.Tiny), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if o := runOnce(t, s); o.failed != 0 {
		t.Fatalf("generated truth: %d failures: %v", o.failed, o.problems)
	}

	flipped := *s
	flipped.Queries = make([]Query, len(s.Queries))
	for i, q := range s.Queries {
		flipped.Queries[i] = Query{Blocks: q.Blocks, Prefix: q.Prefix, Loop: !q.Loop}
	}
	if o, want := runOnce(t, &flipped), idleQueries(s.Name)*idlePasses(s.Name); o.failed != want {
		t.Errorf("inverted what-if truth: %d failures, want one per query (%d)", o.failed, want)
	}

	looped := *s
	looped.Epochs = append([][]wire.Msg(nil), s.Epochs...)
	last := append([]wire.Msg(nil), s.Epochs[len(s.Epochs)-1]...)
	l := s.Topo.Links()[0]
	for i, m := range last {
		var nh fib.DeviceID
		switch int(m.Device) {
		case int(l[0]):
			nh = fib.DeviceID(l[1])
		case int(l[1]):
			nh = fib.DeviceID(l[0])
		default:
			continue
		}
		m.Updates = append(append([]wire.Update(nil), m.Updates...), wire.Update{Op: fib.Insert, Rule: wire.Rule{
			ID: plantIDBase + int64(i), Pri: plantPri, Action: fib.Forward(nh), Desc: s.Reach,
		}})
		last[i] = m
	}
	looped.Epochs[len(looped.Epochs)-1] = last
	o := runOnce(t, &looped)
	found := false
	for _, p := range o.problems {
		found = found || strings.Contains(p, "LoopFound")
	}
	if !found {
		t.Errorf("a loop planted in the final epoch passed the loop check: %v", o.problems)
	}
}

// TestTracedRunSmall runs the traced mode on a small linkflap stream
// and pins that it passes its checks and prints exactly the per-layer
// metrics BENCHMARK.json declares, as the untraced mode prints exactly
// the end-to-end ones.
func TestTracedRunSmall(t *testing.T) {
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	s, err := genFlap("linkflap", exps.FabricFor(exps.Tiny), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, len(s.Queries))
	for i, q := range s.Queries {
		if bodies[i], err = whatIfBody(q); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	traced, err := runTraced(ctx, s, bodies, 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !traced.Correct {
		t.Errorf("traced run: %d of %d operations failed", traced.Failed, traced.Attempted)
	}
	o, err := runUntraced(ctx, s, bodies, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode string
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{
		{"traced", traced.Metrics, decl.PerLayer},
		{"untraced", endToEnd(o).Metrics, decl.EndToEnd},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s run prints %d metrics, BENCHMARK.json declares %d", c.mode, len(c.got), len(c.want))
		}
		for _, w := range c.want {
			if m, ok := c.got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("%s run: metric %s = %+v, want unit %s", c.mode, w.Name, m, w.Unit)
			}
		}
	}
}
