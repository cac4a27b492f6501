package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"time"

	"discsec/internal/c14n"
	"discsec/internal/dectrans"
	"discsec/internal/disc"
	"discsec/internal/experiments"
	"discsec/internal/xmldom"
	"discsec/internal/xmldsig"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlstream"
)

// replaySample bounds how many corpus documents each layer replays.
const replaySample = 128

// layerCost is one layer's replay over the sample.
type layerCost struct {
	perKiB    float64 // ns per KiB of document
	perDoc    float64 // µs per document
	allocsKiB float64 // allocations per KiB of document
}

// layer isolates one layer: prep builds the layer's input for one
// document outside the timed region, op runs the layer on it.
type layer struct {
	name string
	prep func(raw []byte) (any, error)
	op   func(in any) error
}

func parsed(raw []byte) (any, error) { return xmldom.ParseBytes(raw) }

func asBytes(b []byte) (any, error) { return b, nil }

var decryptOpts = xmlenc.DecryptOptions{Key: experiments.EncKey}

// layers replays the front and verification layers through their
// public functions, in the order an open runs them.
func layers(p *plan) []layer {
	verifyOpts := xmldsig.VerifyOptions{Roots: p.roots}
	return []layer{
		{"xmlstream.tokenize", asBytes, func(in any) error {
			return xmlstream.Parse(bytes.NewReader(in.([]byte)), xmlstream.Options{})
		}},
		{"xmldom.build", asBytes, func(in any) error {
			_, err := xmldom.ParseBytes(in.([]byte))
			return err
		}},
		{"c14n.stream", asBytes, func(in any) error {
			st, err := c14n.NewStream(io.Discard, c14n.Options{Exclusive: true})
			if err != nil {
				return err
			}
			if err := xmlstream.Parse(bytes.NewReader(in.([]byte)), xmlstream.Options{}, st); err != nil {
				return err
			}
			return st.Close()
		}},
		{"c14n.dom", parsed, func(in any) error {
			_, err := c14n.CanonicalizeDocument(in.(*xmldom.Document), c14n.Options{Exclusive: true})
			return err
		}},
		{"library.key", asBytes, func(in any) error {
			h := sha256.New()
			st, err := c14n.NewStream(h, c14n.Options{Exclusive: true})
			if err != nil {
				return err
			}
			if err := xmlstream.Parse(bytes.NewReader(in.([]byte)), xmlstream.Options{}, st); err != nil {
				return err
			}
			if err := st.Close(); err != nil {
				return err
			}
			h.Sum(nil)
			return nil
		}},
		{"dectrans", parsed, func(in any) error {
			d := in.(*xmldom.Document)
			_, err := dectrans.ProcessSignature(d, xmldsig.FindSignature(d), decryptOpts)
			return err
		}},
		{"xmldsig.verify", decrypted, func(in any) error {
			d := in.(*xmldom.Document)
			_, err := xmldsig.Verify(d, xmldsig.FindSignature(d), verifyOpts)
			return err
		}},
		{"xmlenc.decrypt", parsed, func(in any) error {
			_, err := xmlenc.DecryptAll(in.(*xmldom.Document), decryptOpts)
			return err
		}},
		{"disc.decode", stripped, func(in any) error {
			_, err := disc.ParseCluster(in.(*xmldom.Document))
			return err
		}},
	}
}

// decrypted is a document after the decryption transform: what the
// signature is verified over.
func decrypted(b []byte) (any, error) {
	d, err := xmldom.ParseBytes(b)
	if err != nil {
		return nil, err
	}
	if _, err := dectrans.ProcessSignature(d, xmldsig.FindSignature(d), decryptOpts); err != nil {
		return nil, err
	}
	return d, nil
}

// stripped is a verified, decrypted document without its security
// markup: what the content hierarchy is decoded from.
func stripped(b []byte) (any, error) {
	in, err := decrypted(b)
	if err != nil {
		return nil, err
	}
	d := in.(*xmldom.Document)
	xmldsig.FindSignature(d).Detach()
	return d, nil
}

// replay runs every layer over the sample for about budget of wall time
// each, input preparation included, and reports its cost.
func replay(p *plan, budget time.Duration) (map[string]layerCost, error) {
	sample := p.docs[:min(len(p.docs), replaySample)]
	var kib float64
	for _, d := range sample {
		kib += float64(len(d.raw)) / 1024
	}
	out := map[string]layerCost{}
	for _, l := range layers(p) {
		var elapsed time.Duration
		var allocs uint64
		var passes int
		begin := time.Now()
		// The first pass warms caches and pools and is not counted.
		for pass := 0; pass <= 1 || time.Since(begin) < budget; pass++ {
			ins := make([]any, len(sample))
			for i, d := range sample {
				in, err := l.prep(d.raw)
				if err != nil {
					return nil, fmt.Errorf("replay %s: prepare: %w", l.name, err)
				}
				ins[i] = in
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			for _, in := range ins {
				if err := l.op(in); err != nil {
					return nil, fmt.Errorf("replay %s: %w", l.name, err)
				}
			}
			took := time.Since(start)
			runtime.ReadMemStats(&m1)
			if pass == 0 {
				continue
			}
			elapsed += took
			allocs += m1.Mallocs - m0.Mallocs
			passes++
		}
		n := float64(passes)
		out[l.name] = layerCost{
			perKiB:    float64(elapsed.Nanoseconds()) / (n * kib),
			perDoc:    float64(elapsed.Nanoseconds()) / 1e3 / (n * float64(len(sample))),
			allocsKiB: float64(allocs) / (n * kib),
		}
	}
	return out, nil
}
