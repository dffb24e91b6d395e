package main

import (
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwal"
	"github.com/shrink-tm/shrink/internal/tkvwire"
)

// kind is a request type of the kv workloads.
type kind uint8

const (
	kGet kind = iota
	kPut
	kCAS
	kAdd
	kMGet
	kBatch
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "cas", "add", "mget", "batch"}

// Latency classes of the end-to-end metrics.
const (
	classRead = iota
	classWrite
	classMulti
	numClasses
)

var classNames = [numClasses]string{"read", "write", "multikey"}

func classOf(k kind) int {
	switch k {
	case kGet:
		return classRead
	case kPut, kCAS, kAdd:
		return classWrite
	}
	return classMulti
}

// request is one generated request. Fields beyond kind are used by the
// kinds that need them; idx, grp and sub locate the key in the workload's
// model.
type request struct {
	kind     kind
	key      uint64
	val, old string
	ver      uint32
	delta    int64
	keys     []uint64
	ops      []tkv.Op
	idx, grp int
	sub      int
}

// response is what the target returned for a request.
type response struct {
	val     string
	found   bool
	n       int64
	results []tkv.OpResult
	err     error
}

// wireTarget executes requests over a wire connection.
type wireTarget struct{ c *tkvwire.Conn }

func (t wireTarget) do(r *request, p *response) {
	*p = response{}
	switch r.kind {
	case kGet:
		p.val, p.found, p.err = t.c.Get(r.key)
	case kPut:
		p.found, p.err = t.c.Put(r.key, r.val)
	case kCAS:
		p.found, p.err = t.c.CAS(r.key, r.old, r.val)
	case kAdd:
		p.n, p.err = t.c.Add(r.key, r.delta)
	case kMGet:
		p.results, p.err = t.c.MGet(r.keys)
	case kBatch:
		p.results, p.err = t.c.Batch(r.ops)
	}
}

// storeTarget runs requests on the store directly. Single-key writes go
// through the *Async functions, so the time to stage a write in the log is
// recorded as its own span before the wait for its commit.
type storeTarget struct {
	st  *tkv.Store
	tr  *tracer // nil while replaying the warm-up
	req uint32
}

func (t *storeTarget) do(r *request, p *response) {
	*p = response{}
	var cm *tkvwal.Commit
	t0 := time.Now()
	switch r.kind {
	case kGet:
		p.val, p.found, p.err = t.st.Get(r.key)
		return
	case kMGet:
		p.results, p.err = t.st.MGet(r.keys)
		return
	case kBatch:
		p.results, p.err = t.st.Batch(r.ops)
		return
	case kPut:
		v := r.val
		p.found, cm, p.err = t.st.PutRefAsync(r.key, &v)
	case kCAS:
		p.found, cm, p.err = t.st.CASAsync(r.key, r.old, r.val)
	case kAdd:
		p.n, cm, p.err = t.st.AddAsync(r.key, r.delta)
	}
	t.tr.record(spWalStage, t.req, t0, time.Now())
	if p.err == nil {
		p.err = cm.Wait()
	}
}

// kvWorkload is what differs between the kv workloads: the request stream
// and the checks against the model.
type kvWorkload interface {
	// gen fills r with client c's next request; it draws only from c.rng
	// and from c's own model state, so a replay with the same seed
	// regenerates the same keys and kinds.
	gen(c *kvClient, r *request)
	// check validates a successful response against the model and
	// applies it to the model.
	check(c *kvClient, r *request, p *response) error
	// taint marks the keys of a failed request as of unknown value.
	taint(c *kvClient, r *request)
}

// kvClient is one closed-loop client: its seeded stream and its buffers.
type kvClient struct {
	id  int
	rng *rand.Rand
	buf []byte
}

func newKVClient(seed uint64, id int) *kvClient {
	return &kvClient{id: id, rng: rand.New(rand.NewPCG(seed, uint64(id)))}
}

// checkErr keeps the first failed check of a run.
type checkErr struct {
	mu  sync.Mutex
	err error
}

func (c *checkErr) set(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

func (c *checkErr) get() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// kvLeg is one client's record of a leg: how many requests it issued
// before and inside the window, its latency samples and its spans.
type kvLeg struct {
	warm, measured int64
	failed         int64
	kinds          [numKinds]int64
	lat            *latencies
	tr             *tracer
}

// kvResult is what runKV measured.
type kvResult struct {
	win           window
	legs          [clients]*kvLeg
	replay        [clients]*kvLeg // traced runs only
	before, after tkv.Stats
}

// runKV serves st over a loopback wire server, drives it with the
// workload's clients for the window, and in a traced run replays the same
// request streams through the store in process. final runs on the first
// client's connection after the clients stop and before the server does.
func runKV(cfg runConfig, w kvWorkload, st *tkv.Store, errs *checkErr, final func(c *tkvwire.Conn) error) (*kvResult, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := tkvwire.NewServer(st)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	var conns [clients]*tkvwire.Conn
	for i := range conns {
		if conns[i], err = tkvwire.Dial(ln.Addr().String()); err != nil {
			return nil, err
		}
		defer conns[i].Close()
	}

	res := &kvResult{}
	epoch := time.Now()
	for i := range res.legs {
		res.legs[i] = newKVLeg(cfg, epoch, i)
	}
	res.win = closedLoop(clients, cfg.seconds, func(id int, lp *loop) {
		c := newKVClient(cfg.seed, id)
		leg := res.legs[id]
		t := wireTarget{conns[id]}
		var r request
		var p response
		for req := uint32(0); ; req++ {
			ph := lp.phase.Load()
			if ph == phaseStop {
				return
			}
			w.gen(c, &r)
			t0 := time.Now()
			t.do(&r, &p)
			t1 := time.Now()
			if ph == phaseMeasure {
				leg.measured++
				leg.kinds[r.kind]++
				leg.lat.add(classOf(r.kind), lp.start, t0, t1)
				leg.tr.record(spWireGet+uint16(r.kind), req, t0, t1)
			} else {
				leg.warm++
			}
			settle(w, c, &r, &p, leg, ph == phaseMeasure, errs)
		}
	}, func() { res.before = st.Stats() }, func() { res.after = st.Stats() })

	if cfg.trace {
		replay(cfg, w, st, res, epoch, errs)
	}
	if err := final(conns[0]); err != nil {
		errs.set(err)
	}
	return res, nil
}

func newKVLeg(cfg runConfig, epoch time.Time, id int) *kvLeg {
	leg := &kvLeg{lat: newLatencies(kvMaxRate, cfg.seconds)}
	if cfg.trace {
		leg.tr = newTracer(epoch, id, 2*kvMaxRate, cfg.seconds) // a replayed write records two spans
	}
	return leg
}

// settle checks a response, or counts and taints a failed request.
func settle(w kvWorkload, c *kvClient, r *request, p *response, leg *kvLeg, measured bool, errs *checkErr) {
	if p.err != nil {
		w.taint(c, r)
		if measured {
			leg.failed++
		}
		fmt.Fprintf(os.Stderr, "tkvbench: client %d: %s of key %d failed: %v\n", c.id, kindNames[r.kind], r.key, p.err)
		return
	}
	if err := w.check(c, r, p); err != nil {
		errs.set(fmt.Errorf("client %d: %s: %w", c.id, kindNames[r.kind], err))
	}
}

// replay issues each client's request stream again, through the store in
// process: the warm-up part unrecorded, then as many requests as the client
// issued in the window, each under a tkv.<kind> span.
func replay(cfg runConfig, w kvWorkload, st *tkv.Store, res *kvResult, epoch time.Time, errs *checkErr) {
	var wg sync.WaitGroup
	for id := range res.replay {
		leg := newKVLeg(cfg, epoch, id)
		res.replay[id] = leg
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newKVClient(cfg.seed, id)
			src := res.legs[id]
			t := &storeTarget{st: st}
			var r request
			var p response
			for req := uint32(0); int64(req) < src.warm+src.measured; req++ {
				measured := int64(req) >= src.warm
				t.req = req
				if measured {
					t.tr = leg.tr
				}
				w.gen(c, &r)
				t0 := time.Now()
				t.do(&r, &p)
				t1 := time.Now()
				if measured {
					leg.tr.record(spStoreGet+uint16(r.kind), req, t0, t1)
				}
				settle(w, c, &r, &p, leg, false, errs)
			}
		}()
	}
	wg.Wait()
}

// kvMetrics turns a kv run into its end-to-end and per-layer metrics.
func kvMetrics(cfg runConfig, res *kvResult, setupS, recoveryS float64) *outcome {
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	var kinds [numKinds]int64
	for _, leg := range res.legs {
		out.attempted += leg.measured
		out.failed += leg.failed
		for k, n := range leg.kinds {
			kinds[k] += n
		}
	}
	res.win.e2e(out.attempted, out.e2e)
	out.e2e["setup_s"] = setupS
	for cl := 0; cl < numClasses; cl++ {
		l := summarizeWindow([]*latencies{res.legs[0].lat, res.legs[1].lat}, cl)
		fmt.Printf("# latency %s: %v\n", classNames[cl], l)
		out.e2e[classNames[cl]+"_p50_us"] = l.p50
		out.e2e[classNames[cl]+"_p99_us"] = l.p99
	}

	ly := out.layers
	b, a := res.before, res.after
	kops := float64(max(out.attempted, 1)) / 1000
	commits := float64(max(a.Commits-b.Commits, 1))
	ly["tkv.ro_fallbacks_per_kop"] = float64(a.ROFallbacks-b.ROFallbacks) / kops
	ly["keylock.stripe_waits_per_kop"] = float64(a.StripeWaitsShared+a.StripeWaitsExcl-b.StripeWaitsShared-b.StripeWaitsExcl) / kops
	ly["stm.aborts_per_commit"] = float64(a.Aborts-b.Aborts) / commits
	ly["sched.serializations_per_kcommit"] = float64(a.Serializations-b.Serializations) / commits * 1000
	ly["runtime.gc_cycles"] = res.win.gcCycles()
	ly["tkvwal.recovery_s"] = recoveryS
	ly["tkvwal.bytes_per_write"], ly["tkvwal.checkpoints"] = 0, 0
	if b.Wal != nil && a.Wal != nil {
		writes := float64(max(kinds[kPut]+kinds[kCAS]+kinds[kAdd]+kinds[kBatch], 1))
		ly["tkvwal.bytes_per_write"] = float64(a.Wal.BytesAppended-b.Wal.BytesAppended) / writes
		ly["tkvwal.checkpoints"] = float64(a.Wal.Checkpoints - b.Wal.Checkpoints)
	}
	if !cfg.trace {
		return out
	}

	wire := make([]*tracer, 0, clients)
	store := make([]*tracer, 0, clients)
	for i := range res.legs {
		wire = append(wire, res.legs[i].tr)
		store = append(store, res.replay[i].tr)
	}
	span := func(ts []*tracer, names ...uint16) lat {
		l := summarize(durations(ts, names...))
		label := make([]string, len(names))
		for i, n := range names {
			label[i] = spanNames[n]
		}
		fmt.Printf("# span %s: n=%d p50_us=%.3f p99_us=%.3f beyond_p99=%d\n", strings.Join(label, "+"), l.n, l.p50, l.p99, l.beyond)
		return l
	}
	wireGet := span(wire, spWireGet)
	wireWrite := span(wire, spWirePut, spWireCAS, spWireAdd)
	storeGet := span(store, spStoreGet)
	storeWrite := span(store, spStorePut, spStoreCAS, spStoreAdd)
	ly["tkvwire.get_self_p50_us"] = wireGet.p50 - storeGet.p50
	ly["tkvwire.write_self_p50_us"] = wireWrite.p50 - storeWrite.p50
	ly["tkv.get_p50_us"] = storeGet.p50
	ly["tkv.get_p99_us"] = storeGet.p99
	ly["tkv.mget_p50_us"] = span(store, spStoreMGet).p50
	ly["tkv.batch_p50_us"] = span(store, spStoreBatch).p50
	ly["tkvwal.stage_p50_us"] = span(store, spWalStage).p50
	ly["stm.tx_p50_us"] = 0 // the kv workloads make no direct engine calls
	if err := writeSpans(filepath.Join(outDir, "spans-"+cfg.name+".bin"), append(wire, store...)); err != nil {
		fmt.Printf("# spans not written: %v\n", err)
	}
	return out
}
