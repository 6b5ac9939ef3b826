// The serving example runs the full end-to-end stack in one process:
// a versioning.Repository behind the hardened serve.Server on a local
// port, driven through the typed repro/client — commits, a checkout
// stampede of plain GETs that the store's flight and the
// encoded-response cache absorb, and a /statsz read showing both.
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"

	"repro/client"
	"repro/serve"
	"repro/versioning"
)

func main() {
	repo := versioning.NewRepository("serving-example", versioning.RepositoryOptions{
		ReplanEvery: 8,
	})
	srv := serve.New(repo, serve.Options{MaxInFlight: 32})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("dsvd serving stack on %s\n\n", base)

	c := client.New(base, client.Options{})
	defer c.Close()
	ctx := context.Background()

	// Commit a chain of versions through the client.
	const versions = 24
	parent := versioning.NoParent
	for v := 0; v < versions; v++ {
		lines := []string{
			fmt.Sprintf("# dataset snapshot %d", v),
			"schema: id,name,value",
			fmt.Sprintf("rows: %d", 100+v*17),
		}
		cr, err := c.Commit(ctx, parent, lines)
		if err != nil {
			log.Fatalf("commit %d: %v", v, err)
		}
		parent = cr.ID
	}
	fmt.Printf("committed %d versions\n", versions)

	// A checkout stampede: 64 concurrent reads over a hot set of 8
	// versions, each its own GET. Identical checkouts that collide share
	// one reconstruction in the store; later ones are answered from the
	// encoded-response cache.
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := versioning.NodeID(versions - 1 - i%8)
			if _, err := c.Checkout(ctx, id); err != nil {
				log.Fatalf("checkout %d: %v", id, err)
			}
		}(i)
	}
	wg.Wait()
	fmt.Println("checkout stampede of 64 over 8 hot versions done")

	sz, err := c.Statsz(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n/statsz after the stampede:\n")
	fmt.Printf("  admission: capacity=%d accepted=%d rejected=%d\n",
		sz.Admission.Capacity, sz.Admission.Accepted, sz.Admission.Rejected)
	for _, name := range []string{"commit", "checkout"} {
		ep := sz.Endpoints[name]
		fmt.Printf("  %-15s requests=%-4d errors=%-2d p50=%.0fµs p99=%.0fµs max=%.0fµs\n",
			name, ep.Requests, ep.Errors, ep.Latency.P50US, ep.Latency.P99US, ep.Latency.MaxUS)
	}
	fmt.Printf("  repo: %d versions, %d replans, uptime %.1fs\n",
		sz.Repo.Versions, sz.Repo.Replans, sz.Repo.UptimeSeconds)
	hits, coalesced := sz.RespCache.Hits, sz.Endpoints["checkout"].Coalesced
	fmt.Printf("  endpoints.checkout.coalesced=%d resp_cache.hits=%d\n", coalesced, hits)
	fmt.Printf("\nOf the 64 checkouts %d were answered from the response cache and %d\n", hits, coalesced)
	fmt.Println("shared a concurrent identical reconstruction in the store.")
}
