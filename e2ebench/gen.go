package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/exps"
	"repro/internal/fib"
	"repro/internal/hs"
	"repro/internal/openr"
	"repro/internal/topo"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Sizes of the generated streams. linkflap's length is part of the
// workload's definition: the per-epoch cost growth it exposes (CE2D
// history replay) only shows over a long uptime, so it is never
// shortened to make a run cheaper.
const (
	flapEvents      = 100     // fail/restore pairs per linkflap stream
	flapGap         = 500_000 // virtual µs between link events; ≫ convergence time
	whatifRate      = 100     // what-ifs per second beside the traced run's in-process feed replay
	plantPri        = 1000    // priority of planted what-if rules, above every FIB rule
	plantIDBase     = 1 << 40 // planted rule IDs, disjoint from generator IDs
	reachCheckName  = "tor1-to-tor0"
	loopCheckName   = "loop-freedom"
	reachSourceName = "tor-1-0"
	reachDestName   = "tor-0-0"
)

// Stream is one workload's generated input: the topology and layout the
// System is configured with, the messages agents send, and the ground
// truth the verdicts are checked against. The program under test only
// ever receives Boot, Epochs and the what-if bodies.
type Stream struct {
	Name   string
	Topo   *topo.Graph
	Layout *hs.Layout
	Mode   string // predicate mode: "bdd" or "hybrid"
	// Reach is the reachability check's packet space (nil: no reach
	// check on this workload).
	Reach fib.MatchDesc
	// Boot is installed during set-up (linkflap); empty for
	// storm-ecmp, whose whole FIB is the timed storm.
	Boot []wire.Msg
	// Epochs holds the timed messages, one slice per epoch, in send
	// order (storm-ecmp: in device order, sent in Orders).
	Epochs [][]wire.Msg
	// Orders are storm-ecmp's per-boot send orders over Epochs[0].
	Orders [][]int
	// Agents is the number of agent connections the timed phase uses.
	Agents int
	// Queries are the seed-chosen what-if hypotheses, with their truth.
	Queries []Query
}

// Query is one what-if hypothesis with its planted truth. A planted
// 2-node loop must make the what-if report a loop. A drop rule can only
// remove loops, so no loop may be reported for a header of the dropped
// prefix; loops reported for other headers are not the hypothesis's
// doing. They occur on snapshots taken mid-convergence: the what-if
// treats a touched device as synchronized, and it may still hold its
// previous epoch's FIB.
type Query struct {
	Blocks []wire.Msg     // device blocks; Epoch unused
	Prefix fib.FieldMatch // the hypothesis's dst prefix
	Loop   bool           // true: a 2-node loop is planted
}

// Sizes are the declared dimensions of a stream.
type Sizes struct {
	Devices, Epochs, Messages, Updates int
}

// Sizes counts the timed part of the stream.
func (s *Stream) Sizes() Sizes {
	z := Sizes{Devices: s.Topo.N(), Epochs: len(s.Epochs)}
	for _, ep := range s.Epochs {
		z.Messages += len(ep)
		for _, m := range ep {
			z.Updates += len(m.Updates)
		}
	}
	return z
}

// Messages flattens the timed epochs in send order.
func (s *Stream) Messages() []wire.Msg {
	var out []wire.Msg
	for _, ep := range s.Epochs {
		out = append(out, ep...)
	}
	return out
}

// bootOrder returns storm-ecmp's boot FIB in boot i's send order.
func (s *Stream) bootOrder(i int) []wire.Msg {
	order := s.Orders[i%len(s.Orders)]
	out := make([]wire.Msg, len(order))
	for j, k := range order {
		out[j] = s.Epochs[0][k]
	}
	return out
}

// Hash digests everything the program receives (boot, timed messages,
// send orders and what-if bodies) in wire encoding, so two streams hash
// equal only if they send the same bytes in the same order.
func (s *Stream) Hash() string {
	h := sha256.New()
	enc := wire.NewEncoder(h)
	put := func(ms []wire.Msg) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(ms)))
		h.Write(n[:])
		for _, m := range ms {
			if err := enc.Encode(m); err != nil {
				panic(err) // generated messages always encode
			}
		}
	}
	put(s.Boot)
	for _, ep := range s.Epochs {
		put(ep)
	}
	for _, order := range s.Orders {
		for _, i := range order {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], uint32(i))
			h.Write(b[:])
		}
	}
	for _, q := range s.Queries {
		put(q.Blocks)
		if q.Loop {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Generate builds a workload's stream from its seed.
func Generate(name string, seed int64) (*Stream, error) {
	switch name {
	case "storm-ecmp":
		return genStorm(exps.FabricFor(exps.Medium), seed)
	case "linkflap":
		return genFlap(name, exps.FabricFor(exps.Small), flapEvents, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want storm-ecmp or linkflap)", name)
}

// stormOrders is how many seed-drawn send orders a storm-ecmp stream
// carries: more than a run boots, so no order repeats within a run.
const stormOrders = 64

// genStorm is a fabric boot: every device's LNet-ecmp FIB as one
// message, all in one epoch, sent by two agents in a seed-permuted
// order that every boot draws afresh. Per-message latency depends on
// which messages queue behind which, so a run averages over many
// orders instead of repeating one. Idle what-if queries after each boot
// plant loops and drops on the booted model.
func genStorm(p topo.FabricParams, seed int64) (*Stream, error) {
	rng := rand.New(rand.NewSource(seed))
	w := workload.LNetECMP(p)
	var ep []wire.Msg
	for _, b := range w.Blocks {
		m, err := wire.FromFib(b.Device, "boot", b.Updates)
		if err != nil {
			return nil, err
		}
		ep = append(ep, m)
	}
	s := &Stream{
		Name: "storm-ecmp", Topo: w.Topo, Layout: w.Layout, Mode: "bdd",
		Epochs: [][]wire.Msg{ep}, Agents: 2,
	}
	for i := 0; i < stormOrders; i++ {
		s.Orders = append(s.Orders, rng.Perm(len(ep)))
	}
	s.Queries = genQueries(rng, w.Topo, stormPrefixes(w), 2*len(w.Prefixes))
	return s, nil
}

// stormPrefixes lists the ToR destination prefixes of a workload in ToR
// order.
func stormPrefixes(w *workload.Workload) []fib.FieldMatch {
	var out []fib.FieldMatch
	for _, tor := range w.Topo.NodesByRole(topo.RoleTor) {
		out = append(out, w.Prefixes[tor])
	}
	return out
}

// genFlap runs the OpenR simulator on a fabric whose ToRs own prefixes
// of a 16-bit dst: the bootstrap FIB, then events seed-chosen links each
// failing and later restoring, every event converging before the next.
// Every device reports every epoch, so most diffs are empty.
func genFlap(name string, p topo.FabricParams, events int, seed int64) (*Stream, error) {
	rng := rand.New(rand.NewSource(seed))
	g := topo.Fabric(p)
	layout := hs.NewLayout(hs.Field{Name: "dst", Bits: 16})
	space := hs.NewSpace(layout)
	owners := g.NodesByRole(topo.RoleTor)
	sim := openr.New(g, space, owners, openr.DefaultOptions())
	for i, l := range flapLinks(rng, g, events) {
		at := openr.Time(2*i+1) * flapGap
		sim.FailLink(at, l[0], l[1])
		sim.RestoreLink(at+flapGap, l[0], l[1])
	}
	sim.Run(openr.Time(2*events+2) * flapGap)

	s := &Stream{Name: name, Topo: g, Layout: layout, Mode: "hybrid", Agents: 1}
	var cur []wire.Msg
	curEpoch := ""
	for _, om := range sim.Messages() {
		m, err := wire.FromFib(om.Msg.Device, string(om.Msg.Epoch), om.Msg.Updates)
		if err != nil {
			return nil, err
		}
		if m.Epoch != curEpoch && len(cur) > 0 {
			s.Epochs = append(s.Epochs, cur)
			cur = nil
		}
		curEpoch = m.Epoch
		cur = append(cur, m)
	}
	s.Epochs = append(s.Epochs, cur)
	s.Boot, s.Epochs = s.Epochs[0], s.Epochs[1:]
	if len(s.Epochs) != 2*events {
		return nil, fmt.Errorf("%s: simulator produced %d epochs, want %d", name, len(s.Epochs), 2*events)
	}
	for i, ep := range s.Epochs {
		if len(ep) != g.N() {
			return nil, fmt.Errorf("%s: epoch %d has %d messages, want one per device (%d)", name, i, len(ep), g.N())
		}
	}
	src := g.MustByName(reachDestName)
	prefixes := make([]fib.FieldMatch, len(owners))
	for i, tor := range owners {
		val, plen := ownerPrefix(i, len(owners), 16)
		prefixes[i] = fib.FieldMatch{Field: "dst", Kind: fib.MatchPrefix, Value: val, Len: plen}
		if tor == src {
			s.Reach = fib.MatchDesc{prefixes[i]}
		}
	}
	s.Queries = genQueries(rng, g, prefixes, idleQueries("linkflap"))
	return s, nil
}

// flapLinks chooses which link each event flaps: every link of the
// fabric equally often, the remainder from seed-chosen primary ToR
// uplinks (a ToR's link to its lowest-numbered aggregation switch, the
// next hop its shortest-path FIB picks first), in a seed-permuted
// order. Each event starts from and returns to the all-links-up state,
// so an event's work depends only on its link's place in the fabric;
// drawing the remainder from one symmetric class gives every seed the
// same amount of work and leaves the seed to choose the order and the
// remainder's links.
func flapLinks(rng *rand.Rand, g *topo.Graph, events int) [][2]topo.NodeID {
	links := g.Links()
	var primary [][2]topo.NodeID
	for _, tor := range g.NodesByRole(topo.RoleTor) {
		up := slices.Min(g.Neighbors(tor))
		primary = append(primary, [2]topo.NodeID{tor, up})
	}
	var out [][2]topo.NodeID
	for len(out)+len(links) <= events {
		out = append(out, links...)
	}
	for _, i := range rng.Perm(len(primary))[:events-len(out)] {
		out = append(out, primary[i])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// holds reports whether a what-if's LoopFound witnesses (headers in
// layout field order) agree with the planted truth. A loop's witness is
// any header of its class, and one class may span several prefixes, so
// a planted loop is checked by the presence of a loop, a drop rule by
// the absence of one inside its prefix.
func (q Query) holds(layout *hs.Layout, witnesses [][]uint64) bool {
	if q.Loop {
		return len(witnesses) > 0
	}
	field := -1
	for i, f := range layout.Fields() {
		if f.Name == q.Prefix.Field {
			field = i
		}
	}
	shift := uint(layout.FieldBits(q.Prefix.Field) - q.Prefix.Len)
	for _, w := range witnesses {
		if field < len(w) && w[field]>>shift == q.Prefix.Value>>shift {
			return false
		}
	}
	return true
}

// ownerPrefix mirrors the simulator's prefix assignment: owner i of n
// gets a fixed-width prefix of the dst field.
func ownerPrefix(i, n, width int) (uint64, int) {
	plen := 1
	for 1<<uint(plen) < n {
		plen++
	}
	return uint64(i) << uint(width-plen), plen
}

// genQueries draws what-if hypotheses alternating between a planted
// 2-node loop on a seed-chosen adjacent pair (LoopFound must be
// reported) and a single drop rule on a seed-chosen device, which
// cannot create a loop (LoopFound must not be reported). Prefixes come
// in rounds, each a seed permutation of all of them: a what-if's cost
// depends mostly on its prefix's subspace, so every run then samples
// the subspaces evenly whatever the seed.
func genQueries(rng *rand.Rand, g *topo.Graph, prefixes []fib.FieldMatch, n int) []Query {
	links := g.Links()
	out := make([]Query, 0, n)
	var round []int
	for i := 0; i < n; i++ {
		if len(round) == 0 {
			round = rng.Perm(len(prefixes))
		}
		pfx := prefixes[round[0]]
		round = round[1:]
		desc := fib.MatchDesc{pfx}
		id := int64(plantIDBase + 2*i)
		rule := func(id int64, a fib.Action) wire.Update {
			return wire.Update{Op: fib.Insert, Rule: wire.Rule{ID: id, Pri: plantPri, Action: a, Desc: desc}}
		}
		if i%2 == 0 {
			l := links[rng.Intn(len(links))]
			out = append(out, Query{Loop: true, Prefix: pfx, Blocks: []wire.Msg{
				{Device: fib.DeviceID(l[0]), Updates: []wire.Update{rule(id, fib.Forward(l[1]))}},
				{Device: fib.DeviceID(l[1]), Updates: []wire.Update{rule(id+1, fib.Forward(l[0]))}},
			}})
		} else {
			dev := fib.DeviceID(rng.Intn(g.N()))
			out = append(out, Query{Loop: false, Prefix: pfx, Blocks: []wire.Msg{
				{Device: dev, Updates: []wire.Update{rule(id, fib.Drop)}},
			}})
		}
	}
	return out
}
