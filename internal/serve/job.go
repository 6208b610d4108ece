package serve

import (
	"context"
	"sync"

	"cmosopt/internal/obs"
)

// job is one admitted request moving through queued → running →
// done/failed/canceled. The terminal transition happens exactly once and
// closes done; everything else is a read under mu.
type job struct {
	id  string
	req *Request
	key string // content address ("" when the request opted out)

	// reg is the job's private span registry: the runner attaches it to
	// the problem Spec, the SSE endpoint flattens it into progress events.
	// Never the process-default registry — concurrent jobs must not mix.
	reg *obs.Registry

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	state  string
	cached bool
	res    *Result
	err    error
}

// begin moves queued → running; false means the job was canceled while it
// waited and the executor must skip it.
func (j *job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	return true
}

// finish records the terminal state once; later calls are ignored (a cancel
// racing a natural completion keeps whichever landed first). When cache is
// non-nil and this call wins, res is stored under the job's key before any
// waiter is released, so a client that resubmits on completion hits it.
func (j *job) finish(state string, res *Result, err error, cache *lru[*Result]) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone, StateFailed, StateCanceled:
		return false
	}
	j.state = state
	j.res = res
	j.err = err
	if cache != nil && j.key != "" {
		cache.put(j.key, res)
	}
	close(j.done)
	return true
}

// status snapshots the job for the wire.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{ID: j.id, State: j.state, Key: j.key, Cached: j.cached, Result: j.res}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}
