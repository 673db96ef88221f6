package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stellaris/internal/algo"
	"stellaris/internal/cache"
	"stellaris/internal/cache/cluster"
	"stellaris/internal/env"
	"stellaris/internal/obs"
	"stellaris/internal/obs/lineage"
	"stellaris/internal/replay"
	"stellaris/internal/rng"
	"stellaris/internal/tensor"
)

// Shape of the cache-mix workload: two closed-loop clients, each
// replaying the async pipeline's cache traffic for one policy update
// per cycle, against 3 shards that each have a replicating follower.
//
// The per-update mix is the one live-mlp sends, counted request by
// request at its cache server (12 untraced runs of 100 updates, 1 actor
// and 2 learners, 2 CPUs): 3.00 trajectory puts; 1.35 learner batches,
// each a batched get of 2 trajectories, 2 deletes and a gradient put;
// 1.32 gradient gets and deletes; 1.01 publishes; and 4.35 weight
// fetches (one per trajectory by the actor, one per batch by the
// learner that takes it), of which 2.16 applied deltas and the rest
// found the head unchanged. The 0.3 trajectories per update that do
// not reach a learner were shed by the loader, which drops a whole
// batch and leaves its trajectories in the cache. Here every
// mixShedEvery-th batch is shed, and its trajectories are written
// under a small ring of keys so that the cache stays bounded; each
// batch goes to a learner drawn from the seed, so a learner that takes
// two batches of one update finds the head unchanged the second time.
const (
	mixShards      = 3
	mixClients     = 2
	mixLearners    = 2
	mixTrajs       = 3  // trajectory puts per update
	mixBatchTrajs  = 2  // 64-step trajectories per 128-step learner batch
	mixShedEvery   = 10 // 1.5 batches formed per update, 1.35 learned
	mixShedKeys    = 16
	mixPoolSize    = 16 // trajectories; every 8th carries invaders frames
	mixGradPool    = 4
	mixPauseSetups = 12 // throwaway cluster set-ups timed per pause
	mixTrajSteps   = 64
	mixWarmCycles  = 20
)

// Cache operation kinds, in reporting order.
const (
	opPutTraj = iota
	opGetNTraj
	opDelete
	opPutGrad
	opGetGrad
	opPublish
	opFetch
	numOps
)

var mixOpNames = [numOps]string{"put_traj", "getn_traj", "delete", "put_grad", "get_grad", "publish", "fetch_weights"}

// mixPayloads are the seeded inputs shared read-only by both clients:
// rollouts of the real environments under freshly initialized models
// (hopper, and invaders at frame 20 for every 8th trajectory) and
// gradient vectors of the live-mlp model's 10,311 parameters.
type mixPayloads struct {
	seed    uint64 // also seeds each client's learner choice
	trajs   []*replay.Trajectory
	grads   [][]float64
	weights []float64
}

func newMixPayloads(seed uint64) *mixPayloads {
	r := rng.New(seed)
	hopper, invaders := env.NewHopper(), env.NewInvaders(cnnFrame)
	mlp := algo.NewModelHidden(hopper, 64, r.Uint64())
	cnn := algo.NewModelHidden(invaders, 64, r.Uint64())
	p := &mixPayloads{seed: seed, weights: mlp.Weights()}
	for i := 0; i < mixPoolSize; i++ {
		if i%8 == 7 {
			p.trajs = append(p.trajs, rolloutTraj(invaders, cnn, mixTrajSteps, r))
		} else {
			p.trajs = append(p.trajs, rolloutTraj(hopper, mlp, mixTrajSteps, r))
		}
	}
	for i := 0; i < mixGradPool; i++ {
		g := randVec(len(p.weights), r)
		tensor.Scale(1e-3, g)
		p.grads = append(p.grads, g)
	}
	return p
}

// mixCluster is the benchmark-owned cache tier.
type mixCluster struct {
	leaders, followers []*cache.Server
	replicas           []*cache.Replica
	fstores            []*cache.MemCache
	regs               []*obs.Registry // leader registries (traced runs only)
	clients            []*cache.ShardedClient
}

// startMixCluster starts the shards and their followers, waits until
// every follower holds the topology document (so its first sync has
// been applied), and dials the clients.
func startMixCluster(seed uint64, instrument bool) (*mixCluster, error) {
	c := &mixCluster{}
	topo := &cluster.Topology{Version: 1}
	var stores []*cache.MemCache
	for i := 0; i < mixShards; i++ {
		store := cache.NewMemCache()
		srv := cache.NewServer(store)
		srv.SetShardID(i)
		if instrument {
			reg := obs.NewRegistry()
			srv.Instrument(reg)
			c.regs = append(c.regs, reg)
		}
		laddr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.leaders = append(c.leaders, srv)
		fstore := cache.NewMemCache()
		fsrv := cache.NewServer(fstore)
		fsrv.SetShardID(i)
		faddr, err := fsrv.Listen("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.followers = append(c.followers, fsrv)
		c.fstores = append(c.fstores, fstore)
		rep := cache.NewReplica(fstore, laddr, cache.ReplicaOptions{Seed: seed + uint64(i)})
		rep.Start()
		c.replicas = append(c.replicas, rep)
		// Term 1 arms write fencing, as in a deployed cluster.
		topo.Shards = append(topo.Shards, cluster.Shard{ID: i, Addr: laddr, Follower: faddr, Term: 1})
		stores = append(stores, store)
	}
	doc, err := topo.Encode()
	if err != nil {
		c.close()
		return nil, err
	}
	for _, s := range stores {
		if err := s.Put(cluster.TopologyKey, doc); err != nil {
			c.close()
			return nil, err
		}
	}
	// A follower that has not synced yet would make the first
	// measured writes pay for its full sync.
	until := time.Now().Add(10 * time.Second)
	for _, fs := range c.fstores {
		for {
			if _, err := fs.Get(cluster.TopologyKey); err == nil {
				break
			}
			if time.Now().After(until) {
				c.close()
				return nil, fmt.Errorf("cache-mix: follower did not sync within 10s")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	for i := 0; i < mixClients; i++ {
		cl, err := cache.DialSharded(topo, cache.DialOptions{Seed: seed + uint64(10+i)})
		if err != nil {
			c.close()
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	return c, nil
}

func (c *mixCluster) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, r := range c.replicas {
		r.Stop()
	}
	for _, s := range append(c.leaders, c.followers...) {
		s.Close()
	}
}

func (c *mixCluster) replicaRecords() int64 {
	var n int64
	for _, r := range c.replicas {
		n += r.Stats().Records
	}
	return n
}

// prefixed gives one client its own keyspace, so the two closed loops
// each run a complete pipeline (their own weight version chain) over
// the shared shards.
type prefixed struct {
	c      *cache.ShardedClient
	prefix string
}

func (p prefixed) Put(k string, v []byte) error         { return p.c.Put(p.prefix+k, v) }
func (p prefixed) Get(k string) ([]byte, error)         { return p.c.Get(p.prefix + k) }
func (p prefixed) Delete(k string) error                { return p.c.Delete(p.prefix + k) }
func (p prefixed) Incr(k string) (int64, error)         { return p.c.Incr(p.prefix + k) }
func (p prefixed) Len() (int, error)                    { return p.c.Len() }
func (p prefixed) GetN(keys []string) ([][]byte, error) { return p.c.GetN(p.keys(keys)) }

func (p prefixed) Keys(prefix string) ([]string, error) {
	ks, err := p.c.Keys(p.prefix + prefix)
	for i := range ks {
		ks[i] = strings.TrimPrefix(ks[i], p.prefix)
	}
	return ks, err
}

func (p prefixed) PutN(kvs []cache.KV) error {
	out := make([]cache.KV, len(kvs))
	for i, kv := range kvs {
		out[i] = cache.KV{Key: p.prefix + kv.Key, Val: kv.Val}
	}
	return p.c.PutN(out)
}

func (p prefixed) keys(keys []string) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = p.prefix + k
	}
	return out
}

// mixClient is one closed loop: it issues an update's cache operations
// in pipeline order, waiting for each reply, and checks every reply.
type mixClient struct {
	id       int
	kv       prefixed
	pay      *mixPayloads
	pub      *cache.WeightsPublisher
	actor    *cache.WeightsSub
	learners [mixLearners]*cache.WeightsSub
	pick     *rng.RNG     // which learner takes each batch
	pending  []mixPending // put, not yet batched
	w        []float64
	ver      int // last published version
	seq      int // trajectories put
	batches  int // batches learned
	rec      *recorder

	lat        [numOps]latencies
	ops        int64
	failed     int64
	mismatches int64
	updates    atomic.Int64
}

// mixPending is a trajectory in the cache, with the bytes put under key.
type mixPending struct {
	key string
	enc []byte
}

// newMixClient makes a client and publishes its initial weights
// (version 0), as live.Train does before its workers start.
func newMixClient(id int, conn *cache.ShardedClient, pay *mixPayloads) *mixClient {
	kv := prefixed{c: conn, prefix: fmt.Sprintf("c%d/", id)}
	m := &mixClient{id: id, kv: kv, pay: pay, pub: &cache.WeightsPublisher{C: kv},
		actor: &cache.WeightsSub{C: kv}, pick: rng.New(pay.seed).Split(uint64(id)),
		w: append([]float64(nil), pay.weights...)}
	for l := range m.learners {
		m.learners[l] = &cache.WeightsSub{C: kv}
	}
	meta := lineage.Meta{ID: lineage.WeightsID(0), Kind: lineage.KindWeights, Origin: "param"}
	m.op(opPublish, 0, func() error { return m.pub.Publish(0, m.w, meta) })
	return m
}

// op times one cache call; failed calls are counted, and the caller
// abandons the rest of the update.
func (m *mixClient) op(kind int, parent int64, f func() error) bool {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	m.lat[kind].add(t1.Sub(t0))
	m.ops++
	if m.rec != nil {
		m.rec.record("cache."+mixOpNames[kind], parent, t0, t1)
	}
	if err != nil {
		m.failed++
		return false
	}
	return true
}

// fetch fetches the policy through sub; it must be the last published
// version, bit for bit.
func (m *mixClient) fetch(sub *cache.WeightsSub, parent int64) bool {
	var got []float64
	var ver int
	if !m.op(opFetch, parent, func() (err error) { got, ver, err = sub.Fetch(); return }) {
		return false
	}
	if ver != m.ver || !sameBits(got, m.w) {
		m.mismatches++
	}
	return true
}

// cycle runs one update's cache traffic.
func (m *mixClient) cycle() {
	v := m.ver + 1
	var parent int64
	if m.rec != nil {
		sp := m.rec.open("cache.update", 0)
		parent = sp.id
		defer sp.end()
	}
	// Actor: fetch the policy, then encode and put one rollout, per
	// trajectory.
	for t := 0; t < mixTrajs; t++ {
		if !m.fetch(m.actor, parent) {
			return
		}
		tr := *m.pay.trajs[(m.seq+m.id)%len(m.pay.trajs)]
		shed := (m.seq/mixBatchTrajs)%mixShedEvery == mixShedEvery-1
		key := fmt.Sprintf("traj/%d", m.seq)
		if shed {
			key = fmt.Sprintf("traj/shed/%d", m.seq%mixShedKeys)
		}
		tr.PolicyVersion = m.ver
		tr.Trace = lineage.Meta{ID: key, Kind: lineage.KindTrajectory, Origin: "actor/0", Parent: lineage.WeightsID(m.ver)}
		b, err := cache.EncodeTrajectory(&tr)
		if err != nil {
			m.mismatches++
			return
		}
		if !m.op(opPutTraj, parent, func() error { return m.kv.Put(key, b) }) {
			cache.Recycle(b)
			return
		}
		m.seq++
		if shed {
			cache.Recycle(b)
		} else {
			m.pending = append(m.pending, mixPending{key: key, enc: b})
		}
	}
	// Learners: each full batch goes to one learner, which fetches the
	// policy, gets the batch in one call, checks and deletes it, and
	// hands its gradient to the parameter worker through the cache.
	for len(m.pending) >= mixBatchTrajs {
		batch := m.pending[:mixBatchTrajs]
		l := m.pick.Intn(mixLearners)
		if !m.fetch(m.learners[l], parent) {
			return
		}
		keys := make([]string, len(batch))
		for j, p := range batch {
			keys[j] = p.key
		}
		var vals [][]byte
		if !m.op(opGetNTraj, parent, func() (err error) { vals, err = cache.BatchGet(m.kv, keys); return }) {
			return
		}
		for j, raw := range vals {
			if !bytes.Equal(raw, batch[j].enc) {
				m.mismatches++
			} else if tr, err := cache.DecodeTrajectory(raw); err != nil || len(tr.Steps) != mixTrajSteps {
				m.mismatches++
			}
		}
		for _, k := range keys {
			if !m.op(opDelete, parent, func() error { return m.kv.Delete(k) }) {
				return
			}
		}
		for _, p := range batch {
			cache.Recycle(p.enc)
		}
		m.pending = append(m.pending[:0], m.pending[mixBatchTrajs:]...)
		if !m.gradient(l, v, parent) {
			return
		}
	}
	// Parameter: apply an update and publish it as a delta chain.
	tensor.Axpy(1, m.pay.grads[v%len(m.pay.grads)], m.w)
	meta := lineage.Meta{ID: lineage.WeightsID(v), Kind: lineage.KindWeights, Origin: "param"}
	if !m.op(opPublish, parent, func() error { return m.pub.Publish(v, m.w, meta) }) {
		return
	}
	m.ver = v
	m.updates.Add(1)
}

// gradient runs one gradient's trip: the learner puts it, the
// parameter worker gets, checks and deletes it.
func (m *mixClient) gradient(l, v int, parent int64) bool {
	key := fmt.Sprintf("grad/%d/%d", l, m.batches)
	m.batches++
	grad := m.pay.grads[(v+l)%len(m.pay.grads)]
	gb, err := cache.EncodeGrad(&cache.GradMsg{LearnerID: l, BornVersion: m.ver, Grad: grad, Samples: 128,
		Trace: lineage.Meta{ID: key, Kind: lineage.KindGradient, Origin: fmt.Sprintf("learner/%d", l)}})
	if err != nil {
		m.mismatches++
		return false
	}
	defer cache.Recycle(gb)
	var raw []byte
	if !m.op(opPutGrad, parent, func() error { return m.kv.Put(key, gb) }) ||
		!m.op(opGetGrad, parent, func() (err error) { raw, err = m.kv.Get(key); return }) {
		return false
	}
	if !bytes.Equal(raw, gb) {
		m.mismatches++
	} else if g, err := cache.DecodeGrad(raw); err != nil || len(g.Grad) != len(grad) {
		m.mismatches++
	}
	return m.op(opDelete, parent, func() error { return m.kv.Delete(key) })
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// mixInterval is one slice of the measurement window.
type mixInterval struct {
	win     window
	updates int64
}

func intervalUpdates(ivs []mixInterval) int64 {
	var n int64
	for _, iv := range ivs {
		n += iv.updates
	}
	return n
}

// runMix drives the clients for seconds in ten equal intervals, calling
// pause (when set) after each interval while the clients wait, and
// returns the intervals, their summed window and the clients.
func runMix(c *mixCluster, pay *mixPayloads, rec *recorder, pause func(interval time.Duration), seconds float64) ([]mixInterval, window, []*mixClient) {
	clients := make([]*mixClient, mixClients)
	for i := range clients {
		clients[i] = newMixClient(i, c.clients[i], pay)
		for k := 0; k < mixWarmCycles; k++ {
			clients[i].cycle()
		}
		// Warm-up ops still count as attempted and checked; only the
		// measurements restart.
		clients[i].lat = [numOps]latencies{}
		clients[i].updates.Store(0)
		clients[i].rec = rec
	}
	total := func() int64 {
		var n int64
		for _, cl := range clients {
			n += cl.updates.Load()
		}
		return n
	}
	const slices = 10
	step := time.Duration(seconds / slices * float64(time.Second))
	var out []mixInterval
	var sum window
	for i := 0; i < slices; i++ {
		var stop atomic.Bool
		var wg sync.WaitGroup
		u0, n0 := readUsage(), total()
		for _, cl := range clients {
			wg.Add(1)
			go func(cl *mixClient) {
				defer wg.Done()
				for !stop.Load() {
					cl.cycle()
				}
			}(cl)
		}
		time.Sleep(step)
		stop.Store(true)
		wg.Wait()
		w := u0.until(readUsage())
		out = append(out, mixInterval{win: w, updates: total() - n0})
		sum.wall += w.wall
		sum.cpu += w.cpu
		sum.gcFraction += w.gcFraction / slices
		if pause != nil {
			pause(w.wall)
		}
	}
	return out, sum, clients
}

// runCacheMix is the cache-mix workload.
func runCacheMix(o opts, rep *report) error {
	pay := newMixPayloads(o.seed)
	if o.trace {
		return traceCacheMix(pay, o, rep)
	}
	// Set-up is timed on the measured cluster and then on throwaway
	// clusters in every pause between measurement intervals, so that
	// the median spans the run's changes of machine speed.
	var setups []float64
	startTimed := func() (*mixCluster, error) {
		runtime.GC()
		t0 := time.Now()
		c, err := startMixCluster(o.seed, false)
		if err == nil {
			setups = append(setups, time.Since(t0).Seconds())
		}
		return c, err
	}
	c, err := startTimed()
	if err != nil {
		return err
	}
	defer c.close()
	rec0 := c.replicaRecords()
	speed, err := newEchoProbe(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	defer speed.stop()
	var setupErr error
	pause := func(interval time.Duration) {
		speed.sample(interval)
		for k := 0; k < mixPauseSetups && setupErr == nil; k++ {
			var tc *mixCluster
			if tc, setupErr = startTimed(); setupErr == nil {
				tc.close()
			}
		}
	}
	intervals, _, clients := runMix(c, pay, nil, pause, o.seconds)
	if speed.err != nil {
		return speed.err
	}
	if setupErr != nil {
		return setupErr
	}
	var ups, cpuMs, allocKB []float64
	for _, iv := range intervals {
		u := float64(iv.updates)
		ups = append(ups, u/iv.win.wall.Seconds())
		cpuMs = append(cpuMs, iv.win.cpu.Seconds()*1e3/u)
		allocKB = append(allocKB, float64(iv.win.allocBytes)/1024/u)
	}
	n := fmt.Sprintf("median of %d intervals, %d closed-loop clients", len(intervals), mixClients)
	setSetup(rep, speed, median(setups), fmt.Sprintf("median of %d cluster start-ups (3 shards + followers, synced, clients dialed)", len(setups)))
	setScaled(rep, speed, median(ups), median(cpuMs), n+"; CPU of the whole process incl. servers and replicas")
	rep.set("alloc_kb_per_update", "KiB", median(allocKB), n)
	var all latencies
	for _, cl := range clients {
		for k := range cl.lat {
			all.merge(&cl.lat[k])
		}
	}
	p50, p99, cnt := all.summary()
	rep.set("op_p50_us", "us", p50, fmt.Sprintf("all ops pooled, %d samples", cnt))
	rep.set("op_p99_us", "us", p99, fmt.Sprintf("all ops pooled, %d samples", cnt))
	checkMix(rep, c, clients, rec0)
	return nil
}

// checkMix records the run's operation counts and checks: every reply
// matched what was put, and the healthy cluster needed no retries or
// failovers.
func checkMix(rep *report, c *mixCluster, clients []*mixClient, rec0 int64) {
	var ops, failed, mismatches, updates int64
	for _, cl := range clients {
		ops += cl.ops
		failed += cl.failed
		mismatches += cl.mismatches
		updates += cl.updates.Load()
	}
	rep.attempted += ops
	rep.failed += failed
	var retries, failovers int64
	for _, cl := range c.clients {
		s := cl.Stats()
		retries += s.Retries + s.Reconnects + s.Timeouts
		failovers += cl.ShardedStats().Failovers
	}
	rep.check("replies-match", mismatches == 0 && updates > 0,
		"%d mismatched replies in %d updates (byte-compared gets, bit-compared weight fetches)", mismatches, updates)
	rep.check("no-failed-ops", failed == 0, "%d of %d ops failed", failed, ops)
	rep.check("no-retries-or-failovers", retries == 0 && failovers == 0, "%d retries, %d failovers", retries, failovers)
	if replicated := c.replicaRecords() - rec0; replicated <= 0 {
		rep.check("followers-replicate", false, "followers applied no records")
	} else {
		rep.check("followers-replicate", true, "%d records applied", replicated)
	}
}

// traceCacheMix is the traced run of cache-mix.
func traceCacheMix(pay *mixPayloads, o opts, rep *report) error {
	base, err := startMixCluster(o.seed, false)
	if err != nil {
		return err
	}
	baseIv, baseWin, baseClients := runMix(base, pay, nil, nil, o.seconds*0.25)
	checkMix(rep, base, baseClients, 0)
	base.close()

	c, err := startMixCluster(o.seed, true)
	if err != nil {
		return err
	}
	defer c.close()
	rec := newRecorder()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	rec0 := c.replicaRecords()
	intervals, win, clients := runMix(c, pay, rec, nil, o.seconds*0.35)
	shares, err := prof.stop()
	if err != nil {
		return err
	}
	updates, baseUpdates := intervalUpdates(intervals), intervalUpdates(baseIv)
	rep.set("trace.overhead_fraction", "fraction",
		1-(float64(updates)/win.wall.Seconds())/(float64(baseUpdates)/baseWin.wall.Seconds()),
		"1 - traced/untraced updates_per_s")
	setProfileShares(rep, shares, win)

	u := float64(updates)
	var all float64
	var ops int64
	var merged [numOps]latencies
	for _, cl := range clients {
		for k := range cl.lat {
			merged[k].merge(&cl.lat[k])
		}
	}
	for k := range merged {
		all += merged[k].total()
		ops += int64(len(merged[k].us))
	}
	for k, name := range mixOpNames {
		p50, p99, n := merged[k].summary()
		stem := "cache.op." + name
		rep.set(stem+".p50_us", "us", p50, fmt.Sprintf("%d samples", n))
		rep.set(stem+".p99_us", "us", p99, fmt.Sprintf("%d samples", n))
		rep.set(stem+".share", "fraction", merged[k].total()/all, "share of client op time")
	}
	var wire float64
	for _, reg := range c.regs {
		s := reg.Snapshot()
		wire += counter(s, "cache_server_frame_bytes_total", "dir", "in") +
			counter(s, "cache_server_frame_bytes_total", "dir", "out")
	}
	rep.set("cache.bytes_per_update", "B", wire/u, "leader frame bytes in+out per update")
	rep.set("cache.ops_per_update", "count", float64(ops)/u, "client cache calls per update")
	var hits, full, skipped float64
	for _, cl := range clients {
		for _, s := range append([]*cache.WeightsSub{cl.actor}, cl.learners[:]...) {
			st := s.Stats()
			hits += float64(st.DeltaHits)
			full += float64(st.FullFetches)
			skipped += float64(st.Skipped)
		}
	}
	rep.set("cache.sub.delta_hit_fraction", "fraction", hits/(hits+full),
		fmt.Sprintf("fetches resolved by deltas / all non-skipped fetches; %.0f%% of all fetches found the head unchanged", 100*skipped/(hits+full+skipped)))
	rep.set("cache.replica.records_per_update", "count", float64(c.replicaRecords()-rec0)/u, "follower records applied per update")
	var retries, failovers int64
	for _, cl := range c.clients {
		s := cl.Stats()
		retries += s.Retries + s.Reconnects + s.Timeouts
		failovers += cl.ShardedStats().Failovers
	}
	rep.set("cache.retries", "count", float64(retries), "client retries+reconnects+timeouts")
	rep.set("cache.failovers", "count", float64(failovers), "shard failovers")
	checkMix(rep, c, clients, rec0)
	if err := rec.writeChrome(o.traceFile); err != nil {
		return err
	}
	runLadder(rep, deadline(o.seconds*0.4))
	return nil
}
