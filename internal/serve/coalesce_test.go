package serve

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/blas"
	"repro/internal/obs"
)

// gatedCoalescer builds a coalescer over a fresh pool whose leaf
// multiplies wait at kern's gate. Teardown opens the gate, drains the
// coalescer and closes the pool.
func gatedCoalescer(t *testing.T, workers, maxBatch int) (*coalescer, *gateKernel, *obs.Registry) {
	t.Helper()
	kern := newGateKernel()
	pool := batch.NewPool(&batch.Options{Workers: workers, Config: kern.config()})
	reg := obs.NewRegistry()
	co := newCoalescer(pool, maxBatch, reg)
	t.Cleanup(func() {
		kern.open()
		co.close()
		pool.Close()
	})
	return co, kern, reg
}

// squareCall is an n×n×n multiply of fresh random operands into zero C.
func squareCall(rng *rand.Rand, n int) batch.Call {
	return batch.Call{
		TransA: blas.NoTrans, TransB: blas.NoTrans,
		M: n, N: n, K: n, Alpha: 1,
		A: randFloats(rng, n*n), Lda: n,
		B: randFloats(rng, n*n), Ldb: n,
		C: make([]float64, n*n), Ldc: n,
	}
}

// occupy submits one call per worker from background goroutines — each
// takes the idle path and holds its worker at the gate — and returns the
// channel their results arrive on once the gate opens.
func occupy(t *testing.T, co *coalescer, kern *gateKernel, rng *rand.Rand, workers, n int) <-chan result {
	t.Helper()
	done := make(chan result, workers)
	for i := 0; i < workers; i++ {
		call := squareCall(rng, n)
		go func() { done <- <-co.submit(call) }()
	}
	kern.waitEntered(t, int64(workers))
	return done
}

// queuedSizes returns the sizes of the coalescer's pending groups in
// queue order.
func queuedSizes(co *coalescer) []int {
	co.mu.Lock()
	defer co.mu.Unlock()
	var sizes []int
	for _, g := range co.queue {
		sizes = append(sizes, len(g.calls))
	}
	return sizes
}

func TestCoalescerIdleDispatchesAtOnce(t *testing.T) {
	co, kern, reg := gatedCoalescer(t, 2, 32)
	kern.open()
	rng := rand.New(rand.NewSource(1))
	const calls = 4
	for i := 0; i < calls; i++ {
		ch := co.submit(squareCall(rng, 8))
		// A grouped call would still be waiting: nothing is in flight to
		// flush its group.
		select {
		case res := <-ch:
			if res.err != nil || res.batched != 1 {
				t.Fatalf("call %d: err=%v batched=%d, want nil/1", i, res.err, res.batched)
			}
		default:
			t.Fatalf("call %d: submit returned before its call ran", i)
		}
	}
	if n := reg.Counter("serve.coalesce.batches").Value(); n != calls {
		t.Fatalf("batches = %d, want %d (one per call)", n, calls)
	}
	if n := reg.Snapshot().Histograms["serve.coalesce.wait.ns"].Count; n != calls {
		t.Fatalf("wait histogram count = %d, want %d", n, calls)
	}
}

func TestCoalescerBusyPoolGroupsOneShape(t *testing.T) {
	const workers, n = 2, 5
	co, kern, reg := gatedCoalescer(t, workers, 32)
	rng := rand.New(rand.NewSource(2))
	blockers := occupy(t, co, kern, rng, workers, 8)

	chs := make([]<-chan result, n)
	for i := range chs {
		chs[i] = co.submit(squareCall(rng, 6))
	}
	if got := queuedSizes(co); !reflect.DeepEqual(got, []int{n}) {
		t.Fatalf("queued groups %v, want one group of %d", got, n)
	}
	kern.open()
	for i, ch := range chs {
		if res := <-ch; res.err != nil || res.batched != n {
			t.Fatalf("member %d: err=%v batched=%d, want nil/%d", i, res.err, res.batched, n)
		}
	}
	for i := 0; i < workers; i++ {
		if res := <-blockers; res.err != nil || res.batched != 1 {
			t.Fatalf("blocker: err=%v batched=%d, want nil/1", res.err, res.batched)
		}
	}
	if got := reg.Counter("serve.coalesce.batches").Value(); got != workers+1 {
		t.Fatalf("batches = %d, want %d", got, workers+1)
	}
	if got := reg.Counter("serve.coalesce.calls").Value(); got != workers+n {
		t.Fatalf("calls = %d, want %d", got, workers+n)
	}
}

func TestCoalescerFlushesFIFO(t *testing.T) {
	co, kern, _ := gatedCoalescer(t, 1, 32)
	rng := rand.New(rand.NewSource(3))
	blockers := occupy(t, co, kern, rng, 1, 4)

	// Shapes 5, 6, 5, 7: the second 5 joins the first group, so groups
	// run as [5 5] [6] [7] on the single worker.
	var chs []<-chan result
	for _, n := range []int{5, 6, 5, 7} {
		chs = append(chs, co.submit(squareCall(rng, n)))
	}
	if got := queuedSizes(co); !reflect.DeepEqual(got, []int{2, 1, 1}) {
		t.Fatalf("queued groups %v, want [2 1 1]", got)
	}
	kern.open()
	for _, ch := range chs {
		if res := <-ch; res.err != nil {
			t.Fatal(res.err)
		}
	}
	<-blockers
	if got, want := kern.ran(), []int{4, 5, 5, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("leaves ran in order %v, want %v", got, want)
	}
}

func TestCoalescerMaxBatchCapsGroup(t *testing.T) {
	co, kern, reg := gatedCoalescer(t, 1, 3)
	rng := rand.New(rand.NewSource(4))
	blockers := occupy(t, co, kern, rng, 1, 8)

	var chs []<-chan result
	for i := 0; i < 7; i++ {
		chs = append(chs, co.submit(squareCall(rng, 6)))
	}
	if got := queuedSizes(co); !reflect.DeepEqual(got, []int{3, 3, 1}) {
		t.Fatalf("queued groups %v, want [3 3 1]", got)
	}
	kern.open()
	var sizes []int
	for _, ch := range chs {
		res := <-ch
		if res.err != nil {
			t.Fatal(res.err)
		}
		sizes = append(sizes, res.batched)
	}
	<-blockers
	sort.Ints(sizes)
	if want := []int{1, 3, 3, 3, 3, 3, 3}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
	if got := reg.Counter("serve.coalesce.batches").Value(); got != 4 {
		t.Fatalf("batches = %d, want 4 (blocker + three groups)", got)
	}
}

func TestCoalescerSkipsExpiredMember(t *testing.T) {
	co, kern, _ := gatedCoalescer(t, 1, 32)
	rng := rand.New(rand.NewSource(5))
	blockers := occupy(t, co, kern, rng, 1, 8)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	calls := []batch.Call{squareCall(rng, 6), squareCall(rng, 6), squareCall(rng, 6)}
	calls[1].Ctx = canceled
	var chs []<-chan result
	for _, c := range calls {
		chs = append(chs, co.submit(c))
	}
	kern.open()
	for i, ch := range chs {
		res := <-ch
		if res.batched != len(calls) {
			t.Fatalf("member %d batched=%d, want %d", i, res.batched, len(calls))
		}
		if i == 1 {
			if !errors.Is(res.err, context.Canceled) {
				t.Fatalf("expired member: err=%v, want context.Canceled", res.err)
			}
			continue
		}
		if res.err != nil {
			t.Fatalf("member %d failed beside an expired neighbour: %v", i, res.err)
		}
		c := calls[i]
		want := make([]float64, len(c.C))
		blas.NaiveKernel{}.MulAdd(blas.NoTrans, blas.NoTrans, c.M, c.N, c.K, 1, c.A, c.Lda, c.B, c.Ldb, want, c.Ldc)
		if !reflect.DeepEqual(c.C, want) {
			t.Fatalf("member %d: wrong product", i)
		}
	}
	<-blockers
}

func TestCoalescerCloseAnswersPendingOnce(t *testing.T) {
	before := runtime.NumGoroutine()
	kern := newGateKernel()
	pool := batch.NewPool(&batch.Options{Workers: 1, Config: kern.config()})
	co := newCoalescer(pool, 32, nil)
	rng := rand.New(rand.NewSource(6))
	blockers := occupy(t, co, kern, rng, 1, 4)

	var chs []<-chan result
	for _, n := range []int{5, 6, 5, 7, 6, 5} {
		chs = append(chs, co.submit(squareCall(rng, n)))
	}
	closed := make(chan struct{})
	go func() {
		co.close()
		close(closed)
	}()
	// close flushes every group into the pool at once, then waits on the
	// gated worker.
	deadline := time.Now().Add(5 * time.Second)
	for len(queuedSizes(co)) > 0 {
		if time.Now().After(deadline) {
			kern.open()
			t.Fatal("close did not flush the queued groups")
		}
		time.Sleep(time.Millisecond)
	}
	if res := <-co.submit(squareCall(rng, 5)); !errors.Is(res.err, errServerClosed) {
		t.Fatalf("submit after close: %v, want errServerClosed", res.err)
	}
	kern.open()
	<-closed
	<-blockers
	for i, ch := range chs {
		select {
		case res := <-ch:
			if res.err != nil {
				t.Fatalf("member %d: %v", i, res.err)
			}
		default:
			t.Fatalf("member %d unanswered after close", i)
		}
		select {
		case <-ch:
			t.Fatalf("member %d answered twice", i)
		default:
		}
	}
	pool.Close()

	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after close\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
