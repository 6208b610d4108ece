// Package serve (fixture): the server package is inside the deterministic
// scope — responses must be byte-identical to the offline tools, so the
// serving layer itself never reads the wall clock. Pacing primitives
// (tickers, timers) are fine; reads that could reach a response are not.
package serve

import "time"

// Latency measures a request — forbidden here; wall-clock measurement
// belongs to a client outside the deterministic scope.
func Latency() time.Duration {
	t0 := time.Now() // want `time.Now in a deterministic package`
	handle()
	return time.Since(t0) // want `time.Since in a deterministic package`
}

// Pace drives the SSE progress poll. Tickers only pace emission — they
// never put a timestamp into a payload — so the analyzer leaves them alone.
func Pace(done chan struct{}) {
	tick := time.NewTicker(100 * time.Millisecond) // ok: pacing, not measurement
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			handle()
		}
	}
}

func handle() {}
