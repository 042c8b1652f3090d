package main

import (
	"context"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// timing is what the open-loop generator observed for one request.
type timing struct {
	Due   time.Time // when the schedule said to send it
	Sent  time.Time // when the generator released it to a connection
	Start time.Time // when a connection took it
	Done  time.Time // when its response was read
}

// Latency is measured from when the request was due, so a stall that
// holds up the connections counts against every request due after it.
func (t timing) Latency() time.Duration { return t.Done.Sub(t.Due) }

// Lag is how late the generator itself released the request.
func (t timing) Lag() time.Duration { return t.Sent.Sub(t.Due) }

// RoundTrip is the request's time on its connection.
func (t timing) RoundTrip() time.Duration { return t.Done.Sub(t.Start) }

// openLoop sends len(due) requests on a fixed schedule (offsets from the
// start) over conns concurrent connections, whatever the system's
// speed: requests that fall due while every connection is busy queue in
// the generator. do(i) performs request i. It returns once every request
// has finished or ctx is done; requests not sent by then have a zero
// Done time.
func openLoop(ctx context.Context, due []time.Duration, conns int, do func(i int)) []timing {
	out := make([]timing, len(due))
	ready := make(chan int, len(due)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				if ctx.Err() != nil {
					continue
				}
				out[i].Start = time.Now()
				do(i)
				out[i].Done = time.Now()
			}
		}()
	}
	// Go's timers wake with millisecond granularity when the process is
	// otherwise idle, which would add up to a millisecond of generator
	// lag to every request. The dispatcher instead sleeps in the kernel
	// on its own thread, which wakes within microseconds.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	for i, d := range due {
		at := start.Add(d)
		for wait := time.Until(at); wait > 0 && ctx.Err() == nil; wait = time.Until(at) {
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil)
		}
		out[i].Due = at
		out[i].Sent = time.Now()
		ready <- i
	}
	close(ready)
	wg.Wait()
	return out
}
