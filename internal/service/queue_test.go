package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// blockingJob returns a run func that signals started and blocks until
// release is closed.
func blockingJob(started chan<- string, release <-chan struct{}, id string) func(context.Context) {
	return func(ctx context.Context) {
		started <- id
		<-release
	}
}

func TestQueueFIFOWithinTenant(t *testing.T) {
	q := NewQueue(8, 1, 1)
	defer q.Close()
	var mu sync.Mutex
	var order []string
	var jobs []*Job
	gate := make(chan struct{})
	for _, id := range []string{"a", "b", "c"} {
		id := id
		j, err := q.Submit(context.Background(), "t", func(ctx context.Context) {
			<-gate
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	close(gate)
	for _, j := range jobs {
		<-j.Done()
	}
	if got := order; len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("execution order %v, want [a b c]", got)
	}
}

func TestQueueFullRejects(t *testing.T) {
	q := NewQueue(1, 1, 1)
	defer q.Close()
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	// First job occupies the worker...
	if _, err := q.Submit(context.Background(), "t", blockingJob(started, release, "run")); err != nil {
		t.Fatal(err)
	}
	<-started
	// ...second fills the FIFO...
	if _, err := q.Submit(context.Background(), "t", blockingJob(started, release, "wait")); err != nil {
		t.Fatal(err)
	}
	// ...third must bounce.
	if _, err := q.Submit(context.Background(), "t", blockingJob(started, release, "reject")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := q.Stats(); st.Rejected != 1 || st.Depth != 1 {
		t.Fatalf("stats = %+v, want 1 rejected, depth 1", st)
	}
}

func TestQueueTenantBudgetAllowsOvertaking(t *testing.T) {
	// Two workers, budget 1: tenant A's second job must NOT run while its
	// first is active, even though it was enqueued before tenant B's.
	q := NewQueue(8, 2, 1)
	defer q.Close()
	started := make(chan string, 8)
	releaseA := make(chan struct{})
	releaseRest := make(chan struct{})

	a1, err := q.Submit(context.Background(), "A", blockingJob(started, releaseA, "a1"))
	if err != nil {
		t.Fatal(err)
	}
	if got := <-started; got != "a1" {
		t.Fatalf("first start %q, want a1", got)
	}
	a2, err := q.Submit(context.Background(), "A", blockingJob(started, releaseRest, "a2"))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := q.Submit(context.Background(), "B", blockingJob(started, releaseRest, "b1"))
	if err != nil {
		t.Fatal(err)
	}

	// b1 overtakes a2: it is the only runnable job for the free worker.
	select {
	case got := <-started:
		if got != "b1" {
			t.Fatalf("second start %q, want b1 (a2 is budget-held)", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tenant B never started; budget scheduling stuck")
	}
	// a2 must stay held while a1 runs.
	select {
	case got := <-started:
		t.Fatalf("%q started despite tenant A budget", got)
	case <-time.After(50 * time.Millisecond):
	}
	if st := q.Stats(); st.ActiveTenants["A"] != 1 || st.ActiveTenants["B"] != 1 {
		t.Fatalf("active tenants = %+v, want A:1 B:1", st.ActiveTenants)
	}
	// Releasing a1 unblocks a2.
	close(releaseA)
	<-a1.Done()
	if got := <-started; got != "a2" {
		t.Fatalf("after a1 finished, started %q, want a2", got)
	}
	close(releaseRest)
	<-a2.Done()
	<-b1.Done()
	if st := q.Stats(); st.Completed != 3 {
		t.Fatalf("completed = %d, want 3", st.Completed)
	}
}

func TestQueueDropsCancelledWhileQueued(t *testing.T) {
	q := NewQueue(8, 1, 1)
	defer q.Close()
	started := make(chan string, 8)
	release := make(chan struct{})
	if _, err := q.Submit(context.Background(), "t", blockingJob(started, release, "run")); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	j, err := q.Submit(ctx, "t", func(context.Context) { t.Error("cancelled job ran") })
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(release)
	<-j.Done()
	if err := j.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("job err = %v, want context.Canceled", err)
	}
	if st := q.Stats(); st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}
}

// TestQueueCancelledJobFreesCapacityEagerly pins the reaping contract:
// a queued job whose context is cancelled releases its FIFO slot
// immediately (not at the next worker scan), so live traffic is not
// rejected with "queue full" on behalf of dead jobs.
func TestQueueCancelledJobFreesCapacityEagerly(t *testing.T) {
	q := NewQueue(1, 1, 1)
	defer q.Close()
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	if _, err := q.Submit(context.Background(), "t", blockingJob(started, release, "run")); err != nil {
		t.Fatal(err)
	}
	<-started // worker occupied for the rest of the test
	ctx, cancel := context.WithCancel(context.Background())
	dead, err := q.Submit(ctx, "t", func(context.Context) { t.Error("dead job ran") })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(context.Background(), "t", func(context.Context) {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("pre-cancel Submit err = %v, want ErrQueueFull", err)
	}
	cancel()
	<-dead.Done() // watcher reaped it; the slot must be free now
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := q.Submit(context.Background(), "t", func(context.Context) {}); err == nil {
			break
		} else if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("post-cancel Submit err = %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never released its queue slot")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueuePanicContainedToOneJob pins the isolation contract: a job
// that panics must not kill the worker pool or hang its submitter; the
// queue records it and keeps serving other jobs.
func TestQueuePanicContainedToOneJob(t *testing.T) {
	q := NewQueue(8, 1, 1)
	defer q.Close()
	bad, err := q.Submit(context.Background(), "t", func(context.Context) { panic("engine bug") })
	if err != nil {
		t.Fatal(err)
	}
	<-bad.Done()
	if err := bad.Err(); err == nil || !strings.Contains(err.Error(), "engine bug") {
		t.Fatalf("panicked job Err = %v, want the panic value", err)
	}
	ran := make(chan struct{})
	good, err := q.Submit(context.Background(), "t", func(context.Context) { close(ran) })
	if err != nil {
		t.Fatal(err)
	}
	<-good.Done()
	select {
	case <-ran:
	default:
		t.Fatal("queue stopped serving after a contained panic")
	}
	if st := q.Stats(); st.Panics != 1 || st.Completed != 2 {
		t.Fatalf("stats %+v, want 1 panic, 2 completed", st)
	}
}

func TestQueueCloseAbandonsPending(t *testing.T) {
	q := NewQueue(8, 1, 1)
	started := make(chan string, 8)
	release := make(chan struct{})
	running, err := q.Submit(context.Background(), "t", blockingJob(started, release, "run"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	held, err := q.Submit(context.Background(), "t", func(context.Context) { t.Error("job ran after Close") })
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	q.Close()
	<-running.Done()
	if err := running.Err(); err != nil {
		t.Fatalf("running job err = %v, want nil", err)
	}
	<-held.Done()
	if err := held.Err(); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("held job err = %v, want ErrQueueClosed", err)
	}
	if _, err := q.Submit(context.Background(), "t", func(context.Context) {}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("post-close Submit err = %v, want ErrQueueClosed", err)
	}
}

// TestQueueDoneAfterAccounting: Done fires only after the worker has
// counted the job, so a caller woken by it sees the job in Stats. The
// test holds the queue lock while the job returns, which stalls the
// accounting; Done must not fire until the lock is released.
func TestQueueDoneAfterAccounting(t *testing.T) {
	q := NewQueue(4, 1, 1)
	defer q.Close()
	started := make(chan string, 1)
	release := make(chan struct{})
	j, err := q.Submit(context.Background(), "A", blockingJob(started, release, "a"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	q.mu.Lock()
	close(release)
	select {
	case <-j.Done():
		completed := q.completed
		q.mu.Unlock()
		t.Fatalf("Done fired before the job was counted (completed %d)", completed)
	case <-time.After(50 * time.Millisecond):
	}
	q.mu.Unlock()
	<-j.Done()
	if st := q.Stats(); st.Completed != 1 || st.Active != 0 {
		t.Fatalf("after Done: completed %d, active %d; want 1, 0", st.Completed, st.Active)
	}
}
