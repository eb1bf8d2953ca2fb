package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	flash "repro"
	"repro/internal/fib"
	"repro/internal/obs"
	"repro/internal/wire"
)

// subspaces is the partition the system under test runs with; workers
// default to GOMAXPROCS and batching is off, as in cmd/flashd.
const subspaces = 8

// checks returns the verification requirements of a stream: loop
// freedom always, plus the tor-1-0 → tor-0-0 reachability requirement
// over tor-0-0's prefix where the stream declares one.
func checks(s *Stream) []flash.CheckSpec {
	out := []flash.CheckSpec{{Name: loopCheckName, Kind: flash.CheckLoopFree}}
	if s.Reach != nil {
		out = append(out, flash.CheckSpec{
			Name:    reachCheckName,
			Kind:    flash.CheckReach,
			Space:   s.Reach,
			Expr:    reachSourceName + " .* " + reachDestName,
			Sources: []string{reachSourceName},
			Dest:    reachDestName,
		})
	}
	return out
}

// newSystem builds the System the way cmd/flashd does, with the
// stream's topology, layout, predicate mode and checks, and a fresh
// metrics registry (flashd always passes one).
func newSystem(s *Stream) (*flash.System, *obs.Registry, error) {
	mode, err := flash.ParsePredicateMode(s.Mode)
	if err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry("flashd")
	sys, err := flash.NewSystem(
		flash.WithTopo(s.Topo),
		flash.WithLayout(s.Layout),
		flash.WithSubspaces(subspaces, ""),
		flash.WithWorkers(0),
		flash.WithBatch(1),
		flash.WithMemoryBudget(0),
		flash.WithPredicateMode(mode),
		flash.WithChecks(checks(s)...),
		flash.WithMetrics(reg),
	)
	return sys, reg, err
}

// resultLog collects the results pushed to an agent ahead of its acks.
type resultLog struct {
	mu  sync.Mutex
	all []flash.Result
}

func (l *resultLog) add(ev wire.ResultEvent) {
	l.mu.Lock()
	l.all = append(l.all, flash.ResultFromWire(ev))
	l.mu.Unlock()
}

func (l *resultLog) take() []flash.Result {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.all
	l.all = nil
	return out
}

// deployment is one System served on loopback the way cmd/flashd
// serves it: the wire server for agents and the admin HTTP API.
type deployment struct {
	sys   *flash.System
	reg   *obs.Registry
	srv   *flash.Server
	http  *http.Server
	web   *http.Client
	admin string

	agents  []*wire.Client
	results []*resultLog

	serveDone chan error
	httpDone  chan error
}

// deploy starts a System, its wire server and admin API on loopback and
// dials the stream's agents. Callers must close the deployment.
func deploy(s *Stream) (*deployment, error) {
	sys, reg, err := newSystem(s)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &deployment{sys: sys, reg: reg, serveDone: make(chan error, 1)}
	d.srv = flash.NewServer(l, sys, nil,
		flash.WithQuarantineTTL(time.Minute),
		flash.WithAckWindow(1024),
		flash.WithAcceptBackoff(time.Second),
	)
	go func() { d.serveDone <- d.srv.Serve() }()
	al, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.admin = "http://" + al.Addr().String()
	d.http = &http.Server{Handler: flash.NewAdminHandler(
		flash.WithAdminMetrics(reg),
		flash.WithAdminSystem(sys),
		flash.WithAdminHealth(sys.Health, d.srv.Health),
	)}
	d.httpDone = make(chan error, 1)
	go func() { d.httpDone <- d.http.Serve(al) }()
	// One keep-alive connection: on linkflap the what-if client is the
	// second of the benchmark's at most nproc connections.
	d.web = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	for i := 0; i < s.Agents; i++ {
		rl := &resultLog{}
		c, err := wire.NewClient(l.Addr().String(), wire.ClientOptions{
			Stream:   "agent-" + strconv.Itoa(i),
			OnResult: rl.add,
		})
		if err != nil {
			d.close()
			return nil, err
		}
		d.agents = append(d.agents, c)
		d.results = append(d.results, rl)
	}
	return d, nil
}

// close stops agents, servers and waits for their goroutines.
func (d *deployment) close() {
	for _, c := range d.agents {
		c.Close()
	}
	if d.http != nil {
		d.web.CloseIdleConnections()
		d.http.Close()
		<-d.httpDone
	}
	d.srv.Close()
	<-d.serveDone
}

// sendSync sends one message and waits for its ack; results the message
// produced have been delivered to the agent's result log when it
// returns.
func sendSync(ctx context.Context, c *wire.Client, m wire.Msg) error {
	if err := c.Send(m); err != nil {
		return err
	}
	return c.WaitAcked(ctx)
}

// whatIfBody renders a hypothesis as the admin API's JSON request.
func whatIfBody(q Query) ([]byte, error) {
	type match struct {
		Field string `json:"field"`
		Kind  string `json:"kind"`
		Value uint64 `json:"value"`
		Len   int    `json:"len"`
	}
	type rule struct {
		ID     int64   `json:"id"`
		Pri    int32   `json:"pri"`
		Action string  `json:"action"`
		Match  []match `json:"match"`
	}
	type update struct {
		Op   string `json:"op"`
		Rule rule   `json:"rule"`
	}
	type block struct {
		Device  uint32   `json:"device"`
		Updates []update `json:"updates"`
	}
	var req struct {
		Blocks []block `json:"blocks"`
	}
	for _, b := range q.Blocks {
		blk := block{Device: uint32(b.Device)}
		for _, u := range b.Updates {
			if u.Op != fib.Insert {
				return nil, errors.New("what-if: only inserts are generated")
			}
			act := "drop"
			if nh, ok := u.Rule.Action.NextHop(); ok {
				act = "fwd:" + strconv.FormatUint(uint64(nh), 10)
			}
			r := rule{ID: u.Rule.ID, Pri: u.Rule.Pri, Action: act}
			for _, f := range u.Rule.Desc {
				r.Match = append(r.Match, match{Field: f.Field, Kind: "prefix", Value: f.Value, Len: f.Len})
			}
			blk.Updates = append(blk.Updates, update{Op: "insert", Rule: r})
		}
		req.Blocks = append(req.Blocks, blk)
	}
	return json.Marshal(req)
}

// postWhatIf runs one hypothesis through POST /v1/whatif and returns
// the witnesses of the LoopFound results that came back.
func (d *deployment) postWhatIf(ctx context.Context, body []byte) (loops [][]uint64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.admin+"/v1/whatif", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.web.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("what-if: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out struct {
		Results []struct {
			Loop    string   `json:"loop"`
			Witness []uint64 `json:"witness"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("what-if: decode response: %w", err)
	}
	for _, r := range out.Results {
		if r.Loop == flash.LoopFound.String() {
			loops = append(loops, r.Witness)
		}
	}
	return loops, nil
}

// blocks converts a hypothesis to the library's DeviceBlock form (for
// the in-process Snapshot/Apply layer replay).
func blocks(q Query) []flash.DeviceBlock {
	out := make([]flash.DeviceBlock, 0, len(q.Blocks))
	for _, b := range q.Blocks {
		out = append(out, flash.DeviceBlock{Device: b.Device, Updates: b.Updates})
	}
	return out
}
