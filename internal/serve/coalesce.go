package serve

import (
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
)

// coalescer groups same-shape GEMM requests into batch.Pool submissions
// only when grouping costs nothing: it is work-conserving. While fewer of
// its calls are in flight than the pool has workers (and no group is
// waiting), a request goes to the pool at once, on its submitter's
// goroutine, so a request below the cutoff costs what one DGEMM costs.
// Once every worker is busy, arrivals join their shape's pending group,
// and groups flush in arrival order as in-flight calls finish. One flush
// is one ExecuteEach call, so a group shares a single plan lookup and
// rides the pool's workers together; each member still gets its own
// per-call error (independent deadlines). maxBatch caps a group; the next
// same-shape arrival opens a new one behind it.
type coalescer struct {
	pool     *batch.Pool
	workers  int
	maxBatch int

	// batches/calls feed the serve.coalesce_ratio metric: ratio =
	// calls.Value() / batches.Value(). wait is each call's time from
	// submit until it is handed to the pool.
	batches *obs.Counter
	calls   *obs.Counter
	wait    *obs.Histogram

	mu       sync.Mutex
	inflight int                  // calls handed to the pool and not yet finished
	queue    []*cgroup            // groups waiting for a free worker, oldest first
	open     map[shapeKey]*cgroup // per shape, the queued group still taking members
	running  sync.WaitGroup       // dispatched groups; close waits so the pool is quiescent
	closed   bool
}

// shapeKey matches internal/batch's bucket identity: calls agreeing on it
// share an execution plan, which is exactly the coalescing opportunity.
type shapeKey struct {
	m, n, k        int
	transA, transB bool
	betaZero       bool
}

func keyOf(c *batch.Call) shapeKey {
	return shapeKey{
		m: c.M, n: c.N, k: c.K,
		transA: c.TransA.IsTrans(), transB: c.TransB.IsTrans(),
		betaZero: c.Beta == 0,
	}
}

// result is one member's outcome: its error and the size of the batch it
// ran in.
type result struct {
	err     error
	batched int
}

// cgroup is one batch: its members' calls, result channels and submit
// times, index-aligned.
type cgroup struct {
	key   shapeKey
	calls []batch.Call
	out   []chan result
	since []time.Time
}

func (g *cgroup) add(call batch.Call, ch chan result, since time.Time) {
	g.calls = append(g.calls, call)
	g.out = append(g.out, ch)
	g.since = append(g.since, since)
}

func newCoalescer(pool *batch.Pool, maxBatch int, reg *obs.Registry) *coalescer {
	if maxBatch < 1 {
		maxBatch = 1
	}
	co := &coalescer{
		pool:     pool,
		workers:  pool.Stats().Workers,
		maxBatch: maxBatch,
		open:     make(map[shapeKey]*cgroup),
	}
	if reg != nil {
		co.batches = reg.Counter("serve.coalesce.batches")
		co.calls = reg.Counter("serve.coalesce.calls")
		co.wait = reg.Histogram("serve.coalesce.wait.ns")
	}
	return co
}

// submit hands a call to the pool and returns the channel its result
// arrives on. With a free worker the call runs before submit returns;
// otherwise it is grouped and submit returns at once. The channel is
// buffered, so an abandoned waiter (deadline expired) never blocks the
// flusher.
func (co *coalescer) submit(call batch.Call) <-chan result {
	ch := make(chan result, 1)
	now := time.Now()

	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		ch <- result{err: errServerClosed}
		return ch
	}
	if co.inflight < co.workers && len(co.queue) == 0 {
		g := &cgroup{}
		g.add(call, ch, now)
		co.startLocked(g)
		co.mu.Unlock()
		co.run(g)
		return ch
	}
	key := keyOf(&call)
	g := co.open[key]
	if g == nil {
		g = &cgroup{key: key}
		co.queue = append(co.queue, g)
		co.open[key] = g
	}
	g.add(call, ch, now)
	if len(g.calls) >= co.maxBatch {
		delete(co.open, key)
	}
	co.mu.Unlock()
	return ch
}

// startLocked counts a group as dispatched. The caller holds co.mu and
// then runs the group.
func (co *coalescer) startLocked(g *cgroup) {
	co.inflight += len(g.calls)
	co.running.Add(1)
}

// dispatchLocked starts queued groups, oldest first, while a pool worker
// is free — or all of them once the coalescer is closed. The caller holds
// co.mu.
func (co *coalescer) dispatchLocked() {
	for len(co.queue) > 0 && (co.inflight < co.workers || co.closed) {
		g := co.queue[0]
		co.queue[0] = nil
		co.queue = co.queue[1:]
		if co.open[g.key] == g {
			delete(co.open, g.key)
		}
		co.startLocked(g)
		go co.run(g)
	}
}

// run executes one dispatched group, hands the freed workers to the groups
// queued behind it, and answers the group's members.
func (co *coalescer) run(g *cgroup) {
	defer co.running.Done()
	if co.wait != nil {
		for _, t := range g.since {
			co.wait.Observe(time.Since(t))
		}
	}
	errs := co.pool.ExecuteEach(g.calls)

	co.mu.Lock()
	co.inflight -= len(g.calls)
	co.dispatchLocked()
	co.mu.Unlock()

	if co.batches != nil {
		co.batches.Add(1)
		co.calls.Add(int64(len(g.calls)))
	}
	for i, ch := range g.out {
		ch <- result{err: errs[i], batched: len(g.calls)}
	}
}

// close refuses further calls, flushes every queued group, and waits for
// all dispatched groups, leaving the pool quiescent so it can be closed
// without racing ExecuteEach.
func (co *coalescer) close() {
	co.mu.Lock()
	co.closed = true
	co.dispatchLocked()
	co.mu.Unlock()
	co.running.Wait()
}
