package main

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// query is one read a workload's open-loop reader issues. check judges the
// response body; a nil error means the answer is right.
type query struct {
	class string
	path  string
	check func(body []byte) error
}

// readResult is the outcome of one reader phase.
type readResult struct {
	lat       timing
	attempted int
	failed    int
	firstErr  error
	byClass   map[string]*timing
}

// openLoopRead issues n queries at rate per second, each due at i/rate
// after start whatever earlier queries are doing, and times each from its
// due time. workers bounds the queries in flight; a query waiting for a
// free worker is late, and its lateness counts.
func openLoopRead(client *http.Client, base string, rate float64, n, workers int, next func(i int) query) readResult {
	type item struct {
		q   query
		due time.Time
	}
	// Buffered for every query of the phase: the dispatcher never blocks
	// on busy workers, so the schedule stays open loop.
	ch := make(chan item, n)
	res := readResult{lat: timing{name: "query"}, byClass: map[string]*timing{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				err := get(client, base+it.q.path, it.q.check)
				d := time.Since(it.due)
				mu.Lock()
				res.attempted++
				res.lat.add(d)
				c := res.byClass[it.q.class]
				if c == nil {
					c = &timing{name: it.q.class}
					res.byClass[it.q.class] = c
				}
				c.add(d)
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("%s %s: %w", it.q.class, it.q.path, err)
					}
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * 1e9))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ch <- item{q: next(i), due: due}
	}
	close(ch)
	wg.Wait()
	return res
}

// get fetches url and hands a 2xx body to check; anything else is an error.
func get(client *http.Client, url string, check func([]byte) error) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; a close error cannot lose data
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %s", resp.Status)
	}
	if check != nil {
		return check(body)
	}
	return nil
}
