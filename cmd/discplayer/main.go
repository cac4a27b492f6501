// Command discplayer is the reference player front end: it loads a disc
// image (local file or downloaded from a content server), runs the
// Fig. 9 security pipeline (decrypt → verify → permissions), and
// executes the selected interactive application, printing the
// verification report, granted rights, presentation schedule, and
// script output.
//
// Usage:
//
//	discplayer run   -image disc.img -roots root.pem [-track t-app-1] [-key <hex>] [-policy policy.xml] [-allow-unsigned]
//	discplayer fetch -url http://host:port -name discs/feature.img -out disc.img
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"os"

	"discsec/internal/access"
	"discsec/internal/disc"
	"discsec/internal/keymgmt"
	"discsec/internal/obs"
	"discsec/internal/player"
	"discsec/internal/server"
	"discsec/internal/xmlenc"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "play":
		err = cmdPlay(os.Args[2:])
	case "fetch":
		err = cmdFetch(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "discplayer:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: discplayer run|play|fetch [flags]")
	os.Exit(2)
}

// cmdPlay plays an A/V track: clip signature verification, stream
// validation, and — when the disc carries a rights license — license
// enforcement for the given device identity.
func cmdPlay(args []string) error {
	fs := flag.NewFlagSet("play", flag.ExitOnError)
	imagePath := fs.String("image", "", "disc image file")
	rootsPath := fs.String("roots", "", "PEM file with trusted roots")
	trackID := fs.String("track", "", "A/V track to play (default: first A/V track)")
	device := fs.String("device", "", "device identity for license enforcement (requires a disc license)")
	storageDir := fs.String("storage", "", "directory for persistent local storage (license use counts, saves)")
	allowUnsigned := fs.Bool("allow-unsigned", false, "load unsigned content")
	metrics := fs.Bool("metrics", false, "print the per-stage observability table after the run")
	fs.Parse(args)
	if *imagePath == "" {
		return fmt.Errorf("play requires -image")
	}
	im, err := disc.LoadImageFile(*imagePath)
	if err != nil {
		return err
	}
	storage, err := openStorage(*storageDir)
	if err != nil {
		return err
	}
	engine := &player.Engine{
		Storage:          storage,
		RequireSignature: !*allowUnsigned,
		Policy:           defaultPolicy(),
		Recorder:         newRunRecorder(*metrics),
	}
	if rec := engine.Recorder; rec != nil {
		defer func() { fmt.Print("\n" + rec.Snapshot().StageTable()) }()
	}
	if *rootsPath != "" {
		pool, err := keymgmt.LoadCertPool(*rootsPath)
		if err != nil {
			return err
		}
		engine.Roots = pool
	} else if !*allowUnsigned {
		return fmt.Errorf("play requires -roots unless -allow-unsigned is set")
	}
	sess, err := engine.Load(context.Background(), im)
	if err != nil {
		return fmt.Errorf("SECURITY PROCESSING FAILED: %w", err)
	}
	id := *trackID
	if id == "" {
		avs := sess.Cluster.AVTracks()
		if len(avs) == 0 {
			return fmt.Errorf("image has no A/V tracks")
		}
		id = avs[0].ID
	}
	var rep *player.PlaybackReport
	if *device != "" {
		rep, err = sess.PlayTrackLicensed(*device, id)
	} else {
		rep, err = sess.PlayTrack(id)
	}
	if err != nil {
		return fmt.Errorf("PLAYBACK REFUSED: %w", err)
	}
	fmt.Printf("played track %q (%d ms total)\n", rep.TrackID, rep.TotalMS)
	if rep.SignatureVerified {
		fmt.Printf("clip signature verified (signer cn=%q)\n", rep.SignerCN)
	}
	for _, c := range rep.Clips {
		fmt.Printf("  clip %-10s %8d bytes %6d packets  %dms..%dms\n",
			c.ClipID, c.Bytes, c.Packets, c.InMS, c.OutMS)
	}
	return nil
}

func cmdFetch(args []string) error {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	url := fs.String("url", "", "content server base URL")
	name := fs.String("name", "", "published item name")
	out := fs.String("out", "disc.img", "output file")
	fs.Parse(args)
	if *url == "" || *name == "" {
		return fmt.Errorf("fetch requires -url and -name")
	}
	d := &server.Downloader{}
	b, err := d.Fetch(*url, *name)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("downloaded %d bytes -> %s\n", len(b), *out)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	imagePath := fs.String("image", "", "disc image file")
	rootsPath := fs.String("roots", "", "PEM file with trusted roots")
	trackID := fs.String("track", "", "application track to run (default: first application track)")
	keyHex := fs.String("key", "", "content decryption key, hex")
	policyPath := fs.String("policy", "", "platform policy XML (default: permit verified apps)")
	storageDir := fs.String("storage", "", "directory for persistent local storage (license use counts, saves)")
	allowUnsigned := fs.Bool("allow-unsigned", false, "load unsigned content")
	metrics := fs.Bool("metrics", false, "print the per-stage observability table after the run")
	fs.Parse(args)
	if *imagePath == "" {
		return fmt.Errorf("run requires -image")
	}

	im, err := disc.LoadImageFile(*imagePath)
	if err != nil {
		return err
	}

	storage, err := openStorage(*storageDir)
	if err != nil {
		return err
	}
	engine := &player.Engine{
		Storage:          storage,
		RequireSignature: !*allowUnsigned,
		Policy:           defaultPolicy(),
		Recorder:         newRunRecorder(*metrics),
	}
	if rec := engine.Recorder; rec != nil {
		defer func() { fmt.Print("\n" + rec.Snapshot().StageTable()) }()
	}
	if *rootsPath != "" {
		pool, err := keymgmt.LoadCertPool(*rootsPath)
		if err != nil {
			return err
		}
		engine.Roots = pool
	} else if !*allowUnsigned {
		return fmt.Errorf("run requires -roots unless -allow-unsigned is set")
	}
	if *keyHex != "" {
		key, err := hex.DecodeString(*keyHex)
		if err != nil {
			return fmt.Errorf("-key: %w", err)
		}
		engine.DecryptKeys = xmlenc.DecryptOptions{Key: key}.ExpandKey()
	}
	if *policyPath != "" {
		polRaw, err := os.ReadFile(*policyPath)
		if err != nil {
			return err
		}
		ps, err := access.ParsePolicySetString(string(polRaw))
		if err != nil {
			return err
		}
		engine.Policy = &access.PDP{PolicySet: *ps}
	}

	sess, err := engine.Load(context.Background(), im)
	if err != nil {
		return fmt.Errorf("SECURITY PROCESSING FAILED — application barred: %w", err)
	}
	fmt.Printf("loaded %q: verified=%v signer=%q\n", sess.Cluster.Title, sess.Verified(), sess.SignerName())
	for i, rep := range sess.OpenResult.Signatures {
		fmt.Printf("  signature %d: cn=%q chain=%v decrypted-before-verify=%d\n",
			i+1, rep.SignerCN, rep.ChainValidated, rep.DecryptedBeforeVerify)
	}

	id := *trackID
	if id == "" {
		apps := sess.Cluster.ApplicationTracks()
		if len(apps) == 0 {
			return fmt.Errorf("image has no application tracks")
		}
		id = apps[0].ID
	}
	rep, err := sess.RunApplication(id)
	if err != nil {
		return err
	}

	fmt.Printf("\napplication %q\n", rep.AppID)
	fmt.Println("granted permissions:")
	for _, p := range rep.Granted {
		fmt.Printf("  + %s\n", p)
	}
	for _, p := range rep.Denied {
		fmt.Printf("  - %s (denied)\n", p)
	}
	if len(rep.Events) > 0 {
		fmt.Println("presentation schedule:")
		for _, ev := range rep.Events {
			fmt.Printf("  %6dms..%6dms %-6s region=%-10s src=%s\n", ev.StartMS, ev.EndMS, ev.Kind, ev.Region, ev.Src)
		}
	}
	if len(rep.Log) > 0 {
		fmt.Println("script output:")
		for _, l := range rep.Log {
			fmt.Printf("  | %s\n", l)
		}
	}
	if len(rep.DeniedOps) > 0 {
		fmt.Println("denied operations:")
		for _, d := range rep.DeniedOps {
			fmt.Printf("  ! %s\n", d)
		}
	}
	for _, e := range rep.ScriptErrors {
		fmt.Printf("script error: %s\n", e)
	}
	return nil
}

// newRunRecorder returns an observability recorder when -metrics is
// set, nil otherwise (nil keeps the pipeline uninstrumented).
func newRunRecorder(metrics bool) *obs.Recorder {
	if !metrics {
		return nil
	}
	return obs.NewRecorder()
}

// openStorage returns directory-backed storage when a path is given,
// in-memory storage otherwise.
func openStorage(dir string) (*disc.LocalStorage, error) {
	if dir == "" {
		return disc.NewLocalStorage(0), nil
	}
	return disc.OpenLocalStorage(dir, 0)
}

// defaultPolicy permits any request from a verified application and
// denies everything from unverified ones.
func defaultPolicy() *access.PDP {
	return &access.PDP{PolicySet: access.PolicySet{
		ID:        "discplayer-default",
		Combining: access.DenyOverrides,
		Policies: []access.Policy{{
			ID:        "verified-gate",
			Combining: access.FirstApplicable,
			Rules: []access.Rule{
				{
					ID:     "deny-unverified",
					Effect: access.EffectDeny,
					Condition: access.Not{C: access.Compare{
						Category: access.CatSubject, Attribute: "verified",
						Op: access.OpEquals, Value: "true",
					}},
				},
				{ID: "permit-verified", Effect: access.EffectPermit},
			},
		}},
	}}
}
