// Package player implements the Interactive Application Engine of the
// paper's §8 prototype (Fig. 11): the component with access to the
// Interactive Cluster that gets application contents decrypted (if
// encrypted) and verified (if signed), evaluates the attached permission
// request file against platform policy, and then executes the
// application — markup scheduling plus script execution against a
// permission-gated host API.
package player

import (
	"bytes"
	"context"
	"crypto"
	"crypto/x509"
	"errors"
	"fmt"
	"io"

	"discsec/internal/access"
	"discsec/internal/core"
	"discsec/internal/disc"
	"discsec/internal/library"
	"discsec/internal/markup"
	"discsec/internal/obs"
	"discsec/internal/rights"
	"discsec/internal/xmldom"
	"discsec/internal/xmlenc"
)

// Engine is a configured player runtime. The zero Engine is a closed
// platform: no trusted roots, a nil policy (deny everything), no
// storage, and signatures not required.
type Engine struct {
	// Roots are the player's trusted root certificates.
	Roots *x509.CertPool
	// Policy is the platform policy deciding permission requests. A
	// nil policy denies everything (closed platform).
	Policy *access.PDP
	// Storage is the player's local storage.
	Storage *disc.LocalStorage
	// DecryptKeys supplies content decryption material. Set it from
	// DecryptOptions.ExpandKey, so the AES key is expanded once per
	// engine rather than once per EncryptedData.
	DecryptKeys xmlenc.DecryptOptions
	// RequireSignature bars unsigned applications (always set for
	// downloaded content; disc content may relax it per §5.1).
	RequireSignature bool
	// KeyByName resolves ds:KeyName hints via a trust service when a
	// signature embeds no certificate (XKMS flow, paper §7).
	KeyByName func(name string) (crypto.PublicKey, error)
	// Recorder receives engine observability when the load context does
	// not carry one of its own (obs.WithRecorder wins). A nil Recorder
	// with a bare context keeps the engine silent.
	Recorder *obs.Recorder
	// Library, when non-nil, is the shared verification library this
	// engine loads through. The library owns the verification trust
	// configuration (its core.Opener supersedes the engine's
	// Roots/DecryptKeys/RequireSignature/KeyByName for loads) — one
	// trust config per cache is what makes sharing verdicts between
	// engines sound. Sessions built from library verdicts share the
	// decoded cluster and security report read-only.
	Library *library.Library
}

// Session is a loaded, verified disc or download.
type Session struct {
	// Cluster is the decoded content hierarchy.
	Cluster *disc.InteractiveCluster
	// Image is the backing disc image (nil for bare documents).
	Image *disc.Image
	// OpenResult reports the security processing.
	OpenResult *core.OpenResult

	engine      *Engine
	rec         *obs.Recorder
	licenseEval *rights.Evaluator
	licenseID   string
}

// Load opens a disc image: reads the index, runs the Fig. 9 security
// pipeline, and decodes the content hierarchy. The context carries
// cancellation intent and the obs.Recorder for per-stage spans.
func (e *Engine) Load(ctx context.Context, im *disc.Image) (*Session, error) {
	raw, err := im.ReadIndexDocumentBytes()
	if err != nil {
		return nil, fmt.Errorf("player: %w", err)
	}
	s, err := e.LoadDocument(ctx, raw)
	if err != nil {
		return nil, err
	}
	s.Image = im
	return s, nil
}

// LoadFrom opens a bare cluster document read from r (a downloaded
// application body, a request body, an open file). The reader is
// consumed once, to EOF, and the document is verified from the resident
// bytes: without a shared library core.Opener.OpenReader reads it into
// its parse arena; with one, the library's key front reads it into a
// pooled buffer so a cache hit needs no further parse.
func (e *Engine) LoadFrom(ctx context.Context, r io.Reader) (*Session, error) {
	ctx, rec := obs.Attach(ctx, e.Recorder)
	sp := rec.Start(obs.StageLoad)
	s, err := e.loadFrom(ctx, rec, r)
	sp.End()
	if err != nil {
		rec.Inc("load.err")
		return nil, err
	}
	rec.Inc("load.ok")
	return s, nil
}

// LoadDocument is LoadFrom over an in-memory document.
func (e *Engine) LoadDocument(ctx context.Context, raw []byte) (*Session, error) {
	return e.LoadFrom(ctx, bytes.NewReader(raw))
}

func (e *Engine) loadFrom(ctx context.Context, rec *obs.Recorder, r io.Reader) (*Session, error) {
	if e.Library != nil {
		v, _, err := e.Library.OpenReader(ctx, r)
		if err != nil {
			return nil, fmt.Errorf("player: security processing: %w", err)
		}
		return &Session{Cluster: v.Cluster, OpenResult: v.Result, engine: e, rec: rec}, nil
	}
	opener := &core.Opener{
		Roots:            e.Roots,
		Decrypt:          e.DecryptKeys,
		RequireSignature: e.RequireSignature,
		KeyByName:        e.KeyByName,
	}
	res, err := opener.OpenReader(ctx, r)
	if err != nil {
		return nil, fmt.Errorf("player: security processing: %w", err)
	}
	return &Session{Cluster: res.Cluster, OpenResult: res, engine: e, rec: rec}, nil
}

// Verified reports whether the session's content passed signature
// verification (at least one chain-validated signature).
func (s *Session) Verified() bool {
	for _, rep := range s.OpenResult.Signatures {
		if rep.ChainValidated {
			return true
		}
	}
	return false
}

// SignerName returns the first validated signer name, or "".
func (s *Session) SignerName() string {
	for _, rep := range s.OpenResult.Signatures {
		if rep.SignerName != "" {
			return rep.SignerName
		}
	}
	return ""
}

// ExecutionReport is the observable outcome of running an application.
type ExecutionReport struct {
	// AppID is the executed manifest id.
	AppID string
	// Granted and Denied are the permission evaluation outcomes.
	Granted []access.Permission
	Denied  []access.Permission
	// Log collects player.log() output from scripts.
	Log []string
	// DeniedOps lists host API calls refused at runtime.
	DeniedOps []string
	// Events is the markup presentation schedule.
	Events []markup.PresentationEvent
	// ScriptErrors collects non-fatal script failures.
	ScriptErrors []string
}

// RunApplication executes the application track: permission evaluation,
// markup scheduling, then script execution with the permission-gated
// host API.
func (s *Session) RunApplication(trackID string) (*ExecutionReport, error) {
	track := s.Cluster.FindTrack(trackID)
	if track == nil {
		return nil, fmt.Errorf("player: no track %q", trackID)
	}
	if track.Kind != disc.TrackApplication || track.Manifest == nil {
		return nil, fmt.Errorf("player: track %q is not an application", trackID)
	}
	m := track.Manifest
	rep := &ExecutionReport{AppID: m.ID}

	// Permission evaluation (paper §4: permission request files).
	grants, err := s.evaluatePermissions(m)
	if err != nil {
		return nil, err
	}
	rep.Granted = grants.Granted()
	rep.Denied = grants.Denied()

	// Everything past policy evaluation is application execution.
	defer s.rec.Start(obs.StageExecute).End()

	// Markup: build the presentation plan.
	var layout *markup.Layout
	var timing *markup.TimingNode
	for _, sm := range m.Markup.SubMarkups {
		if sm.Content == nil {
			continue
		}
		switch sm.Kind {
		case "layout":
			l, err := markup.ParseLayout(sm.Content)
			if err != nil {
				return nil, fmt.Errorf("player: layout: %w", err)
			}
			layout = l
		case "timing":
			tn, err := markup.ParseTiming(sm.Content)
			if err != nil {
				return nil, fmt.Errorf("player: timing: %w", err)
			}
			timing = tn
		}
	}
	if layout != nil && timing != nil {
		if err := timing.ValidateAgainstLayout(layout); err != nil {
			return nil, fmt.Errorf("player: %w", err)
		}
	}
	if timing != nil {
		rep.Events = timing.Schedule()
	}

	// Scripts: execute against the gated host API.
	interp := markup.NewInterp()
	s.bindHostAPI(interp, m, grants, rep)
	for i, script := range m.Code.Scripts {
		if script.Language != "" && script.Language != "ecmascript" {
			rep.ScriptErrors = append(rep.ScriptErrors, fmt.Sprintf("script %d: unsupported language %q", i+1, script.Language))
			continue
		}
		if err := interp.RunSource(script.Source); err != nil {
			rep.ScriptErrors = append(rep.ScriptErrors, fmt.Sprintf("script %d: %v", i+1, err))
		}
	}
	return rep, nil
}

func (s *Session) evaluatePermissions(m *disc.Manifest) (*access.GrantSet, error) {
	pr := &access.PermissionRequest{AppID: m.ID}
	if m.PermissionFile != "" && s.Image != nil {
		raw, err := s.Image.Get(m.PermissionFile)
		if err != nil {
			return nil, fmt.Errorf("player: permission file: %w", err)
		}
		doc, err := xmldom.ParseBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("player: permission file: %w", err)
		}
		parsed, err := access.ParsePermissionRequest(doc)
		if err != nil {
			return nil, err
		}
		pr = parsed
		if pr.AppID == "" {
			pr.AppID = m.ID
		}
	}
	pdp := s.engine.Policy
	if pdp == nil {
		// Closed platform: an empty policy set is NotApplicable for
		// every request, which the PDP maps to Deny.
		pdp = &access.PDP{}
	}
	if pdp.Recorder == nil && s.rec != nil {
		// Shallow copy so the session's recorder does not leak into a
		// policy shared across engines.
		cp := *pdp
		cp.Recorder = s.rec
		pdp = &cp
	}
	return pdp.EvaluateRequest(pr, s.subjectAttrs(), nil)
}

func (s *Session) subjectAttrs() map[string]string {
	attrs := map[string]string{"verified": "false"}
	if s.Verified() {
		attrs["verified"] = "true"
		attrs["signer"] = s.SignerName()
	}
	return attrs
}

// bindHostAPI installs the player/storage/display host objects, each
// operation gated on the grant set (the enforcement half of §4's access
// control).
func (s *Session) bindHostAPI(in *markup.Interp, m *disc.Manifest, grants *access.GrantSet, rep *ExecutionReport) {
	deny := func(op string) {
		rep.DeniedOps = append(rep.DeniedOps, op)
		s.rec.Audit(obs.AuditRuntimeDenied, "app %s: %s", m.ID, op)
	}

	in.SetGlobal("player", &markup.HostObject{Name: "player", Members: map[string]markup.Value{
		"log": markup.HostFunc(func(args []markup.Value) (markup.Value, error) {
			line := ""
			for i, a := range args {
				if i > 0 {
					line += " "
				}
				line += markup.ToString(a)
			}
			rep.Log = append(rep.Log, line)
			return nil, nil
		}),
		"appId":    m.ID,
		"verified": s.Verified(),
	}})

	storageKeyPrefix := m.ID + "/"
	in.SetGlobal("storage", &markup.HostObject{Name: "storage", Members: map[string]markup.Value{
		"set": markup.HostFunc(func(args []markup.Value) (markup.Value, error) {
			if len(args) < 2 {
				return nil, errors.New("storage.set(name, value) requires two arguments")
			}
			name := markup.ToString(args[0])
			if !grants.Allows(access.PermLocalStorageWrite, storageKeyPrefix+name) {
				deny("storage.set " + name)
				return false, nil
			}
			if s.engine.Storage == nil {
				return false, nil
			}
			if err := s.engine.Storage.Put(m.ID, name, []byte(markup.ToString(args[1]))); err != nil {
				deny("storage.set " + name + ": " + err.Error())
				return false, nil
			}
			return true, nil
		}),
		"get": markup.HostFunc(func(args []markup.Value) (markup.Value, error) {
			if len(args) < 1 {
				return nil, errors.New("storage.get(name) requires an argument")
			}
			name := markup.ToString(args[0])
			if !grants.Allows(access.PermLocalStorageRead, storageKeyPrefix+name) {
				deny("storage.get " + name)
				return nil, nil
			}
			if s.engine.Storage == nil {
				return nil, nil
			}
			b, err := s.engine.Storage.Get(m.ID, name)
			if err != nil {
				return nil, nil
			}
			return string(b), nil
		}),
	}})

	in.SetGlobal("display", &markup.HostObject{Name: "display", Members: map[string]markup.Value{
		"draw": markup.HostFunc(func(args []markup.Value) (markup.Value, error) {
			if !grants.Allows(access.PermGraphicsPlane, "") {
				deny("display.draw")
				return false, nil
			}
			line := "draw"
			for _, a := range args {
				line += " " + markup.ToString(a)
			}
			rep.Log = append(rep.Log, line)
			return true, nil
		}),
	}})

	in.SetGlobal("network", &markup.HostObject{Name: "network", Members: map[string]markup.Value{
		"connect": markup.HostFunc(func(args []markup.Value) (markup.Value, error) {
			if len(args) < 1 {
				return nil, errors.New("network.connect(url) requires an argument")
			}
			url := markup.ToString(args[0])
			if !grants.Allows(access.PermNetworkConnect, url) {
				deny("network.connect " + url)
				return false, nil
			}
			rep.Log = append(rep.Log, "connect "+url)
			return true, nil
		}),
	}})
}
