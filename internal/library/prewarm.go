package library

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"discsec/internal/core"
	"discsec/internal/disc"
	"discsec/internal/obs"
)

// mounted is one registered disc: an immutable snapshot of its index
// bytes, the canonical key once known, and prewarmed per-track
// serializations. The serialized bytes are a pure function of the index
// snapshot, so they stay valid across trust-epoch refills of the same
// content; their trustworthiness is gated by OpenTrack succeeding.
type mounted struct {
	name string
	im   *disc.Image
	raw  []byte       // index document snapshot taken at Mount
	key  atomic.Value // canonical digest (string), set by first fill
	trks sync.Map     // trackID -> []byte (serialized verified track)
}

// Mount registers a disc image under name and prewarms its manifest
// tree: the index document is verified (and cached) synchronously, then
// the bounded worker pool fans out over the detached track-payload
// signature and per-track serializations. Any prewarm failure fails the
// Mount — the disc is not registered, so nothing unverified can be
// served later (fail closed).
func (l *Library) Mount(ctx context.Context, name string, im *disc.Image) error {
	ctx, rec := l.obsContext(ctx)
	if name == "" || im == nil {
		return fmt.Errorf("library: Mount requires a name and image")
	}
	if _, exists := l.mounts.Load(name); exists {
		return fmt.Errorf("%w: %q", ErrAlreadyMounted, name)
	}
	raw, err := im.ReadIndexDocumentBytes()
	if err != nil {
		return fmt.Errorf("library: mount %q: %w", name, err)
	}
	m := &mounted{name: name, im: im, raw: raw}

	// The index verdict anchors everything else; verify it first.
	v, _, err := l.openMounted(ctx, rec, m)
	if err != nil {
		return fmt.Errorf("library: mount %q: %w", name, err)
	}

	// Fan the rest of the tree out over the shared worker pool.
	var wg sync.WaitGroup
	errs := make(chan error, len(v.Cluster.Tracks)+1)
	run := func(task func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case l.prewarmSem <- struct{}{}:
				defer func() { <-l.prewarmSem }()
			case <-ctx.Done():
				errs <- ctx.Err()
				return
			}
			if err := ctx.Err(); err != nil {
				errs <- err
				return
			}
			rec.Inc("library.prewarm")
			if err := task(); err != nil {
				errs <- err
			}
		}()
	}
	if im.Has(core.ClipSignaturePath) {
		run(func() error {
			op := l.opener
			if _, err := op.VerifyDetached(ctx, im, core.ClipSignaturePath); err != nil {
				return fmt.Errorf("track payload signature: %w", err)
			}
			return nil
		})
	}
	for _, tr := range v.Cluster.Tracks {
		tr := tr
		run(func() error {
			m.trks.Store(tr.ID, tr.Element().Bytes())
			return nil
		})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			rec.Audit(obs.AuditVerifyFailed, "mount %s: prewarm: %v", name, err)
			return fmt.Errorf("library: mount %q: prewarm: %w", name, err)
		}
	}

	if _, exists := l.mounts.LoadOrStore(name, m); exists {
		return fmt.Errorf("%w: %q", ErrAlreadyMounted, name)
	}
	rec.Inc("library.mount")
	return nil
}

// Unmount forgets a disc. Its verdicts stay resident (they are
// content-addressed and may serve other mounts) until evicted.
func (l *Library) Unmount(name string) bool {
	_, ok := l.mounts.LoadAndDelete(name)
	return ok
}

// Mounts lists the mounted disc names (diagnostics and routing).
func (l *Library) Mounts() []string {
	var out []string
	l.mounts.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	return out
}

// openMounted serves the mounted disc's index verdict. The warm path
// costs two map lookups — the precomputed canonical key and the shard
// hit — with no parse or canonicalization; that is the whole point of
// mounting.
func (l *Library) openMounted(ctx context.Context, rec *obs.Recorder, m *mounted) (*Verdict, Status, error) {
	key, ok := m.key.Load().(string)
	if !ok || key == "" {
		// First touch: one key pass over the snapshot.
		var err error
		if key, err = KeyBytes(rec, m.raw); err != nil {
			return nil, StatusMiss, fmt.Errorf("parse index: %w", err)
		}
		m.key.Store(key)
	}
	return l.open(ctx, rec, key, m.raw, m.im)
}

// OpenDisc returns the verified verdict for a mounted disc's index: the
// decoded cluster, the security report, and how the call was served.
func (l *Library) OpenDisc(ctx context.Context, discName string) (*Verdict, Status, error) {
	ctx, rec := l.obsContext(ctx)
	defer rec.Start(obs.StageLibrary).End()
	got, ok := l.mounts.Load(discName)
	if !ok {
		return nil, StatusMiss, fmt.Errorf("%w: %q", ErrNotMounted, discName)
	}
	return l.openMounted(ctx, rec, got.(*mounted))
}

// OpenTrack returns one verified track of a mounted disc plus the
// verdict it came from. A warm call is pure cache; a cold or
// invalidated call re-verifies the disc's index snapshot (singleflight
// deduplicated) before any track is handed out.
func (l *Library) OpenTrack(ctx context.Context, discName, trackID string) (*disc.Track, *Verdict, Status, error) {
	v, status, err := l.OpenDisc(ctx, discName)
	if err != nil {
		return nil, nil, status, err
	}
	track := v.Cluster.FindTrack(trackID)
	if track == nil {
		return nil, nil, status, fmt.Errorf("%w: %q on disc %q", ErrNoTrack, trackID, discName)
	}
	return track, v, status, nil
}

// TrackXML serves the serialized verified track, preferring the
// prewarmed per-mount serialization. The bytes are only released after
// OpenTrack re-establishes the verdict, so a revoked signer's tracks
// stop serving even though their serialization is still resident.
func (l *Library) TrackXML(ctx context.Context, discName, trackID string) ([]byte, *Verdict, Status, error) {
	track, v, status, err := l.OpenTrack(ctx, discName, trackID)
	if err != nil {
		return nil, nil, status, err
	}
	if got, ok := l.mounts.Load(discName); ok {
		m := got.(*mounted)
		if b, ok := m.trks.Load(trackID); ok {
			return b.([]byte), v, status, nil
		}
		b := track.Element().Bytes()
		m.trks.Store(trackID, b)
		return b, v, status, nil
	}
	return track.Element().Bytes(), v, status, nil
}
