package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/shrink-tm/shrink/internal/enginecfg"
	"github.com/shrink-tm/shrink/internal/stm"
	"github.com/shrink-tm/shrink/internal/stmds"
)

// stm-rbtree: the paper's red-black tree integer set.
const (
	rbRange     = 16384
	rbInsertPct = 35 // inserts and deletes split the 70% updates
	rbUpdatePct = 70
	rbSetups    = 25
	rbFillBatch = 256
)

// rbSet is one set-up of the workload: the engine, its threads and the
// tree holding exactly rbRange/2 keys.
type rbSet struct {
	sched   *enginecfg.Sched
	threads [clients]stm.Thread
	tree    *stmds.RBTree[int64]
	size    int
}

// setUpRBTree builds the TinySTM-like engine with Shrink, registers the
// worker threads and fills the tree with the first rbRange/2 keys of a
// seeded permutation.
func setUpRBTree(seed uint64) (*rbSet, error) {
	tm, sc, err := enginecfg.Build(enginecfg.Spec{Engine: enginecfg.EngineTiny, Scheduler: enginecfg.SchedShrink})
	if err != nil {
		return nil, err
	}
	s := &rbSet{sched: sc, tree: stmds.NewRBTree[int64](), size: rbRange / 2}
	for i := range s.threads {
		s.threads[i] = tm.Register(fmt.Sprintf("rbtree-%d", i))
	}
	keys := rand.New(rand.NewPCG(seed, 0x7b)).Perm(rbRange)[:s.size]
	for len(keys) > 0 {
		part := keys[:min(len(keys), rbFillBatch)]
		keys = keys[len(part):]
		if err := s.threads[0].Atomically(func(tx stm.Tx) error {
			for _, k := range part {
				if _, err := s.tree.Insert(tx, int64(k), int64(k)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// treeView is the part of the tree the final check reads.
type treeView interface {
	Size(tx stm.Tx) (int, error)
	CheckInvariants(tx stm.Tx) (int, error)
}

// checkTree requires the red-black invariants and a size equal to the
// initial size plus the successful inserts minus the successful deletes.
func checkTree(th stm.Thread, t treeView, want int) error {
	return th.Atomically(func(tx stm.Tx) error {
		if _, err := t.CheckInvariants(tx); err != nil {
			return err
		}
		n, err := t.Size(tx)
		if err != nil {
			return err
		}
		if n != want {
			return fmt.Errorf("tree holds %d keys, initial size plus inserts minus deletes is %d", n, want)
		}
		return nil
	})
}

// rbClient is one worker thread's loop state. Its transaction bodies are
// bound once and read their operand from key, so the loop allocates only
// what the engine and the tree allocate.
type rbClient struct {
	key              int64
	ok               bool
	insert, del, has func(tx stm.Tx) error
	inserted         int64 // successful inserts, every phase
	deleted          int64 // successful deletes, every phase
	measured         int64
	lat              *latencies
	tr               *tracer
	commits, aborts  [2]uint64 // thread counters at the window's edges
}

func newRBClient(s *rbSet) *rbClient {
	c := &rbClient{}
	c.insert = func(tx stm.Tx) (err error) { c.ok, err = s.tree.Insert(tx, c.key, c.key); return }
	c.del = func(tx stm.Tx) (err error) { c.ok, err = s.tree.Delete(tx, c.key); return }
	c.has = func(tx stm.Tx) (err error) { c.ok, err = s.tree.Contains(tx, c.key); return }
	return c
}

func runRBTree(cfg runConfig) (*outcome, error) {
	var s *rbSet
	times := make([]float64, 0, rbSetups)
	for i := 0; i < rbSetups; i++ {
		t0 := time.Now()
		var err error
		if s, err = setUpRBTree(cfg.seed); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	fmt.Printf("# setup: range %d, %d keys, %d%% updates, %d set-ups, seconds %.4g\n", rbRange, s.size, rbUpdatePct, rbSetups, times)

	var cs [clients]*rbClient
	epoch := time.Now()
	for i := range cs {
		c := newRBClient(s)
		c.lat = newLatencies(stmMaxRate, cfg.seconds)
		if cfg.trace {
			c.tr = newTracer(epoch, i, stmMaxRate, cfg.seconds)
		}
		cs[i] = c
	}
	var serial [2]uint64
	edge := func(e int) {
		serial[e] = s.sched.Serializations()
		for i, c := range cs {
			ctx := s.threads[i].Ctx()
			c.commits[e], c.aborts[e] = ctx.Commits.Load(), ctx.Aborts.Load()
		}
	}
	// The edges read the other threads' counters while they run; the
	// counters are atomics, and the clients' own fields are read only
	// after closedLoop has waited for them.
	win := closedLoop(clients, cfg.seconds, func(id int, lp *loop) {
		c, th := cs[id], s.threads[id]
		rng := rand.New(rand.NewPCG(cfg.seed, uint64(id)))
		for req := uint32(0); ; req++ {
			ph := lp.phase.Load()
			if ph == phaseStop {
				return
			}
			c.key = int64(rng.IntN(rbRange))
			p := rng.IntN(100)
			body := c.has
			switch {
			case p < rbInsertPct:
				body = c.insert
			case p < rbUpdatePct:
				body = c.del
			}
			t0 := time.Now()
			err := th.Atomically(body)
			t1 := time.Now()
			if err != nil {
				// Atomically retries conflicts; any error is a bug in
				// the engine or the tree.
				panic(fmt.Sprintf("rbtree transaction failed: %v", err))
			}
			// A transaction that changed the set is a write; a lookup,
			// an insert of a present key or a delete of an absent one
			// leaves it unchanged and is a read.
			class := classRead
			if c.ok && p < rbInsertPct {
				c.inserted++
				class = classWrite
			} else if c.ok && p < rbUpdatePct {
				c.deleted++
				class = classWrite
			}
			if ph == phaseMeasure {
				c.measured++
				c.lat.add(class, lp.start, t0, t1)
				c.tr.record(spSTMTx, req, t0, t1)
			}
		}
	}, func() { edge(0) }, func() { edge(1) })

	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	want := s.size
	var commits, aborts uint64
	for _, c := range cs {
		out.attempted += c.measured
		want += int(c.inserted - c.deleted)
		commits += c.commits[1] - c.commits[0]
		aborts += c.aborts[1] - c.aborts[0]
	}
	out.checkErr = checkTree(s.threads[0], s.tree, want)
	win.e2e(out.attempted, out.e2e)
	out.e2e["setup_s"] = median(times)
	ls := []*latencies{cs[0].lat, cs[1].lat}
	reads := summarizeWindow(ls, classRead)
	writes := summarizeWindow(ls, classWrite)
	all := summarizeWindow(ls, classRead, classWrite)
	for i, l := range []windowLat{reads, writes, all} {
		fmt.Printf("# latency %s: %v\n", []string{"set unchanged", "set changed", "every tx"}[i], l)
	}
	out.e2e["read_p50_us"], out.e2e["read_p99_us"] = reads.p50, reads.p99
	out.e2e["write_p50_us"], out.e2e["write_p99_us"] = writes.p50, writes.p99
	out.e2e["multikey_p50_us"], out.e2e["multikey_p99_us"] = all.p50, all.p99

	ly := out.layers
	for n := range layerUnits {
		ly[n] = 0 // no store, wire or log in this workload
	}
	delete(ly, "stm.tx_p50_us")
	ly["stm.aborts_per_commit"] = float64(aborts) / float64(max(commits, 1))
	ly["sched.serializations_per_kcommit"] = float64(serial[1]-serial[0]) / float64(max(commits, 1)) * 1000
	ly["runtime.gc_cycles"] = win.gcCycles()
	fmt.Printf("# engine: commits=%d aborts=%d serializations=%d\n", commits, aborts, serial[1]-serial[0])
	if cfg.trace {
		ts := []*tracer{cs[0].tr, cs[1].tr}
		tx := summarize(durations(ts, spSTMTx))
		fmt.Printf("# span stm.tx: n=%d p50_us=%.3f p99_us=%.3f beyond_p99=%d\n", tx.n, tx.p50, tx.p99, tx.beyond)
		ly["stm.tx_p50_us"] = tx.p50
		if err := writeSpans(outDir+"/spans-"+cfg.name+".bin", ts); err != nil {
			fmt.Printf("# spans not written: %v\n", err)
		}
	}
	return out, nil
}
