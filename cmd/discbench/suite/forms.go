package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"discsec/internal/cluster"
	"discsec/internal/core"
	"discsec/internal/experiments"
	"discsec/internal/library"
	"discsec/internal/server"
	"discsec/internal/xmlenc"
)

// verdict is what a serving form answered for one document.
type verdict struct {
	key, signer string
	hit         bool
}

// system is one constructed serving form, driven only through its
// public entry points.
type system struct {
	// open presents one document on client slot (0 or 1).
	open func(ctx context.Context, slot int, raw []byte) (verdict, error)
	// prewarmSlots are the client slots of the two set-up workers.
	prewarmSlots [2]int
	// lib is the library behind the form (the origin's on edge-fleet).
	lib    *library.Library
	origin *cluster.Origin
	edges  []*cluster.Edge
	stops  []func()
}

func (s *system) close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
}

// build constructs the workload's serving form. tr, when non-nil,
// wraps every HTTP handler and client transport so spans cross hops.
func build(p *plan, tr *tracer) (*system, error) {
	lib := library.New(
		library.WithOpener(core.Opener{
			Roots:            p.roots,
			Decrypt:          xmlenc.DecryptOptions{Key: experiments.EncKey},
			RequireSignature: true,
		}),
		library.WithByteBudget(p.budget),
	)
	sys := &system{lib: lib, prewarmSlots: [2]int{0, 1}}
	switch p.spec.form {
	case formLibrary:
		sys.open = func(ctx context.Context, _ int, raw []byte) (verdict, error) {
			v, st, err := lib.OpenReader(ctx, bytes.NewReader(raw))
			if err != nil {
				return verdict{}, err
			}
			return verdict{key: v.Key, signer: v.Fingerprint, hit: st == library.StatusHit}, nil
		}
	case formHTTP:
		base, stop, err := serve(tr.handler("server", server.NewContentServer(server.WithLibrary(lib))))
		if err != nil {
			return nil, err
		}
		sys.stops = append(sys.stops, stop)
		var clients [2]*http.Client
		for i := range clients {
			t := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			sys.stops = append(sys.stops, t.CloseIdleConnections)
			clients[i] = &http.Client{Timeout: 30 * time.Second, Transport: tr.transport("client", t)}
		}
		sys.open = func(ctx context.Context, slot int, raw []byte) (verdict, error) {
			return postVerify(ctx, clients[slot], base, raw)
		}
	case formEdge:
		if err := sys.startFleet(tr); err != nil {
			sys.close()
			return nil, err
		}
		sys.prewarmSlots = [2]int{0, 0}
		sys.open = func(ctx context.Context, slot int, raw []byte) (verdict, error) {
			rd, st, err := sys.edges[slot].OpenReader(ctx, bytes.NewReader(raw))
			if err != nil {
				return verdict{}, err
			}
			return verdict{key: rd.Key, signer: rd.Signer, hit: st == cluster.StatusHit}, nil
		}
	}
	return sys, nil
}

// verifyReply is the JSON body of POST /verify.
type verifyReply struct {
	Key    string `json:"key"`
	Cache  string `json:"cache"`
	Signer string `json:"signer"`
}

func postVerify(ctx context.Context, c *http.Client, base string, raw []byte) (verdict, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/verify", bytes.NewReader(raw))
	if err != nil {
		return verdict{}, fmt.Errorf("POST /verify: %w", err)
	}
	resp, err := c.Do(req)
	if err != nil {
		return verdict{}, fmt.Errorf("POST /verify: %w", err)
	}
	defer resp.Body.Close()
	var rep verifyReply
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&rep)
	}
	// Drain the rest so the keep-alive connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return verdict{}, fmt.Errorf("POST /verify: %s", resp.Status)
	}
	if err != nil {
		return verdict{}, fmt.Errorf("POST /verify: decode reply: %w", err)
	}
	return verdict{key: rep.Key, signer: rep.Signer, hit: rep.Cache == string(library.StatusHit)}, nil
}

// fleetEdges is the number of edges in edge-fleet, one per client slot.
const fleetEdges = 2

// startFleet serves the origin and the edges, each behind its own
// loopback ContentServer, and joins the edges.
func (s *system) startFleet(tr *tracer) error {
	client := func(node string) *http.Client {
		t := &http.Transport{MaxIdleConnsPerHost: 4}
		s.stops = append(s.stops, t.CloseIdleConnections)
		return &http.Client{Timeout: 5 * time.Second, Transport: tr.transport(node, t)}
	}
	s.origin = cluster.NewOrigin(s.lib, cluster.WithOriginClient(client("origin")))
	originURL, stop, err := serve(tr.handler("origin", server.NewContentServer(server.WithClusterOrigin(s.origin))))
	if err != nil {
		return err
	}
	s.stops = append(s.stops, stop)
	for i := 0; i < fleetEdges; i++ {
		name := fmt.Sprintf("edge-%d", i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listen: %w", err)
		}
		e := cluster.NewEdge(name, "http://"+ln.Addr().String(), originURL, cluster.WithEdgeClient(client(name)))
		s.stops = append(s.stops, serveOn(ln, tr.handler(name, server.NewContentServer(server.WithClusterEdge(e)))))
		if err := e.Join(context.Background()); err != nil {
			return fmt.Errorf("join %s: %w", name, err)
		}
		s.edges = append(s.edges, e)
	}
	// Join broadcasts membership asynchronously; ring routing needs
	// every edge to see the whole fleet.
	deadline := time.Now().Add(5 * time.Second)
	for _, e := range s.edges {
		for e.Ring().Len() != fleetEdges {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never saw the full membership", e.Name())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// serve starts h on a loopback listener.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	return "http://" + ln.Addr().String(), serveOn(ln, h), nil
}

func serveOn(ln net.Listener, h http.Handler) func() {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	//discvet:ignore goroutineleak Serve returns when the returned stop func calls srv.Close
	go srv.Serve(ln) //nolint:errcheck // shutdown path returns ErrServerClosed
	return func() { _ = srv.Close() }
}
