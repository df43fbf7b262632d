package itracker

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestDistancesPanicReleasesSingleflight is the regression test for the
// singleflight leak: a panic during materialization used to leave
// t.inflight set and the done channel unclosed, wedging every future
// Distances call forever. The cleanup now runs under defer, so the
// panicking caller sees the panic and everyone else just retries.
func TestDistancesPanicReleasesSingleflight(t *testing.T) {
	tr, _ := testTracker(Config{Name: "panic", ASN: 1})
	tr.testHookPreMatrix = func() { panic("injected matrix failure") }

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("materializing caller did not observe the panic")
			}
		}()
		tr.Distances("")
	}()

	tr.mu.Lock()
	leaked := tr.inflight != nil
	tr.mu.Unlock()
	if leaked {
		t.Fatal("inflight marker still set after panic")
	}

	// A later caller must succeed, not block on a never-closed channel.
	tr.testHookPreMatrix = nil
	done := make(chan error, 1)
	go func() {
		_, err := tr.Distances("")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Distances wedged after a panicking recompute")
	}
}

// TestDistancesPanicReleasesWaiters pins the concurrent shape of the
// same bug: callers already parked on the in-flight channel when the
// materializer panics must be released and then succeed via retry.
func TestDistancesPanicReleasesWaiters(t *testing.T) {
	tr, _ := testTracker(Config{Name: "panic-waiters", ASN: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var fired atomic.Bool
	tr.testHookPreMatrix = func() {
		if fired.CompareAndSwap(false, true) {
			close(entered)
			<-release
			panic("injected matrix failure")
		}
	}

	go func() {
		defer func() { recover() }()
		tr.Distances("")
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("materializer never started")
	}

	const waiters = 8
	results := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := tr.Distances("")
			results <- err
		}()
	}
	close(release) // let the materializer panic with waiters parked
	for i := 0; i < waiters; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter wedged after the materializer panicked")
		}
	}
}
