package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrQueueFull is returned by Submit when the bounded FIFO is at capacity;
// HTTP callers translate it to 503 + Retry-After.
var ErrQueueFull = errors.New("service: queue full")

// ErrQueueClosed is returned for jobs abandoned by a shutting-down queue.
var ErrQueueClosed = errors.New("service: queue closed")

// Job is a queued unit of work. The submitter waits on Done; Err reports
// why a job never ran (queue shutdown, context cancelled while queued) and
// is nil once run was invoked.
type Job struct {
	tenant string
	ctx    context.Context
	run    func(ctx context.Context)
	done   chan struct{}
	err    error // written before done is closed, read after

	// enqueued is stamped by Submit; wait is the enqueue-to-run-start
	// interval, written by runJob before run is invoked (and therefore
	// safely readable after Done). Time a job spends held back by its
	// tenant's budget is queue wait by construction — the clock only
	// stops when a worker actually starts the job.
	enqueued time.Time
	wait     time.Duration
}

// Done is closed when the job has finished running or was abandoned.
func (j *Job) Done() <-chan struct{} { return j.done }

// QueueWait reports how long the job sat queued before a worker started
// it (including time held back by its tenant's concurrency budget), or 0
// for a job that never ran. Valid after Done.
func (j *Job) QueueWait() time.Duration {
	<-j.done
	return j.wait
}

// Err is valid after Done: nil if the job ran to completion, otherwise
// the reason it was dropped while queued or the panic it crashed with.
func (j *Job) Err() error {
	<-j.done
	return j.err
}

// Queue is a bounded FIFO of selection jobs executed by a fixed worker
// pool under per-tenant concurrency budgets: at most `budget` jobs of one
// tenant run at a time, so a single heavy tenant queues behind itself
// while other tenants' jobs overtake it (earliest-runnable-first — FIFO
// order is preserved within a tenant and between runnable jobs). Jobs
// whose context is cancelled while queued are dropped without running.
type Queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []*Job
	cap     int
	budget  int
	active  map[string]int
	closed  bool
	wg      sync.WaitGroup

	accepted, rejected, completed, dropped, panics int64
}

// NewQueue starts a queue with the given FIFO capacity, worker count
// (global concurrent jobs) and per-tenant budget. Each argument is clamped
// to at least 1.
func NewQueue(capacity, workers, tenantBudget int) *Queue {
	q := &Queue{
		cap:    max(1, capacity),
		budget: max(1, tenantBudget),
		active: map[string]int{},
	}
	q.cond = sync.NewCond(&q.mu)
	for i := 0; i < max(1, workers); i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit enqueues run under the tenant's budget. It returns ErrQueueFull
// when the FIFO is at capacity and ErrQueueClosed after Close. The caller
// waits on the returned job's Done channel; run executes on a queue worker
// with the submitted context.
func (q *Queue) Submit(ctx context.Context, tenant string, run func(ctx context.Context)) (*Job, error) {
	j := &Job{tenant: tenant, ctx: ctx, run: run, done: make(chan struct{}), enqueued: time.Now()}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		q.rejected++
		return nil, ErrQueueClosed
	}
	if len(q.pending) >= q.cap {
		q.rejected++
		return nil, ErrQueueFull
	}
	q.pending = append(q.pending, j)
	q.accepted++
	q.cond.Signal()
	go q.watch(j)
	return j, nil
}

// watch reaps the job eagerly when its context is cancelled while still
// queued, so dead jobs free FIFO capacity (and unblock their submitters)
// immediately instead of waiting for the next worker scan. Exactly one
// path removes a job from pending under the lock — the watcher, a worker
// scan, or Close — so done is closed exactly once.
func (q *Queue) watch(j *Job) {
	select {
	case <-j.done:
	case <-j.ctx.Done():
		q.mu.Lock()
		for i, p := range q.pending {
			if p == j {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				q.dropped++
				q.mu.Unlock()
				j.err = j.ctx.Err()
				close(j.done)
				return
			}
		}
		// Already popped (running) or already reaped; the run context
		// carries the cancellation from here.
		q.mu.Unlock()
	}
}

// nextRunnableLocked pops the earliest pending job whose tenant has budget
// left, dropping cancelled jobs it walks past. Returns nil when nothing is
// runnable right now.
func (q *Queue) nextRunnableLocked() *Job {
	for i := 0; i < len(q.pending); {
		j := q.pending[i]
		if j.ctx.Err() != nil {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			q.dropped++
			j.err = j.ctx.Err()
			close(j.done)
			continue
		}
		if q.active[j.tenant] < q.budget {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			return j
		}
		i++
	}
	return nil
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		var j *Job
		for {
			if q.closed { // never start new work after Close
				q.mu.Unlock()
				return
			}
			if j = q.nextRunnableLocked(); j != nil {
				break
			}
			q.cond.Wait()
		}
		q.active[j.tenant]++
		q.mu.Unlock()

		q.runJob(j)

		q.mu.Lock()
		q.active[j.tenant]--
		if q.active[j.tenant] == 0 {
			delete(q.active, j.tenant)
		}
		q.completed++
		// A finished job may unblock a budget-held tenant for any waiting
		// worker, and Close waits for the last worker to observe closed.
		q.cond.Broadcast()
		q.mu.Unlock()
		// Done fires after the accounting, so a caller that waited on it
		// sees the job in Stats.
		close(j.done)
	}
}

// runJob executes one job, containing panics: jobs run on queue workers,
// outside net/http's per-request recovery, so an engine panic on one
// tenant's upload must not take down the daemon (the worker must still
// close done, or the submitting handler would hang forever).
func (q *Queue) runJob(j *Job) {
	defer func() {
		if r := recover(); r != nil {
			j.err = fmt.Errorf("service: job panicked: %v", r)
			q.mu.Lock()
			q.panics++
			q.mu.Unlock()
		}
	}()
	j.wait = time.Since(j.enqueued)
	j.run(j.ctx)
}

// Saturated reports whether the FIFO is at capacity — the readiness
// probe's backpressure signal: a saturated queue means the next Submit
// gets ErrQueueFull, so load balancers should stop routing here.
func (q *Queue) Saturated() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending) >= q.cap
}

// Close stops the workers after their current jobs and abandons every
// still-pending job with ErrQueueClosed. Pending jobs are failed *before*
// waiting for in-flight ones to drain, so submitters blocked on Done are
// released promptly even while a slow job still occupies a worker — a
// shutdown must not hold every queued client hostage to the longest
// running search. Idempotent: later calls just wait for the drain.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	// Extracting pending under the same lock that set closed means the
	// watchers and worker scans can never find these jobs again: this
	// path alone closes their done channels, exactly once.
	pending := q.pending
	q.pending = nil
	q.dropped += int64(len(pending))
	q.cond.Broadcast()
	q.mu.Unlock()
	for _, j := range pending {
		j.err = ErrQueueClosed
		close(j.done)
	}
	q.wg.Wait()
}

// QueueStats is a snapshot of the queue's state and counters.
type QueueStats struct {
	// Depth is the current number of queued (not yet running) jobs.
	Depth int `json:"depth"`
	// Active is the number of jobs currently running, and ActiveTenants
	// the per-tenant breakdown.
	Active        int            `json:"active"`
	ActiveTenants map[string]int `json:"active_tenants,omitempty"`
	// Accepted/Rejected count Submit outcomes; Completed jobs that ran;
	// Dropped jobs abandoned while queued (cancelled or shutdown);
	// Panics jobs that crashed (contained to the one job).
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Dropped   int64 `json:"dropped"`
	Panics    int64 `json:"panics"`
}

// Stats returns a consistent snapshot.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QueueStats{
		Depth:    len(q.pending),
		Accepted: q.accepted, Rejected: q.rejected,
		Completed: q.completed, Dropped: q.dropped, Panics: q.panics,
	}
	if len(q.active) > 0 {
		st.ActiveTenants = make(map[string]int, len(q.active))
		for t, n := range q.active {
			st.Active += n
			st.ActiveTenants[t] = n
		}
	}
	return st
}
