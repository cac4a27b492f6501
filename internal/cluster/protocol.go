// Wire protocol: length-prefixed JSON frames over HTTP. Every message
// is one uvarint byte count followed by exactly that many bytes of
// JSON, so streams of verdicts concatenate without delimiters, a
// truncated transfer is detected at the frame boundary (io.
// ErrUnexpectedEOF, never a silently short verdict set), and a hostile
// peer cannot balloon a decode past MaxFrame.
package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Cluster routes. The origin serves Verify (cold verification), Epoch
// (GET: current fleet epoch — the edge heartbeat), Verdicts (GET:
// bootstrap pull of the current verdict set), and Join; edges serve
// Verify (forwarded misses from ring peers), Verdicts (POST: pushed
// records), Epoch (POST: announcements), and Members (membership
// updates).
const (
	PathVerify   = "/cluster/verify"
	PathEpoch    = "/cluster/epoch"
	PathVerdicts = "/cluster/verdicts"
	PathJoin     = "/cluster/join"
	PathMembers  = "/cluster/members"
)

// Wire headers.
const (
	// HeaderEdge names the requesting edge so the origin can skip it
	// during push fan-out (the requester gets the record in its
	// response).
	HeaderEdge = "X-Cluster-Edge"
	// HeaderForwarded marks a miss already routed once by the ring;
	// the receiving edge must fill from the origin directly, never
	// re-forward — divergent ring views can therefore never loop.
	HeaderForwarded = "X-Cluster-Forwarded"
	// HeaderStatus reports how the node served the open (Status).
	HeaderStatus = "X-Cluster-Status"
)

// MaxFrame bounds one frame's JSON body.
const MaxFrame = 4 << 20

// EpochAnnounce carries the fleet trust epoch, pushed by the origin on
// every trust change and polled by edge heartbeats.
type EpochAnnounce struct {
	Epoch uint64 `json:"epoch"`
	// Reason is the human-readable cause (audit trails only; never
	// load-bearing).
	Reason string `json:"reason,omitempty"`
}

// JoinRequest registers an edge with the origin.
type JoinRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// JoinResponse hands a joining edge the fleet epoch and the full
// membership (itself included).
type JoinResponse struct {
	Epoch   uint64   `json:"epoch"`
	Members []Member `json:"members"`
}

// MemberUpdate is the origin's membership broadcast to standing edges;
// it carries the epoch too, so membership churn doubles as an epoch
// convergence opportunity.
type MemberUpdate struct {
	Epoch   uint64   `json:"epoch"`
	Members []Member `json:"members"`
}

// WriteFrame writes v as one length-prefixed JSON frame.
func WriteFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cluster: encoding frame: %w", err)
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("cluster: frame of %d bytes exceeds the %d-byte limit", len(body), MaxFrame)
	}
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(len(body)))
	if _, err := w.Write(prefix[:n]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// EncodeFrame returns v as one framed message (request bodies).
func EncodeFrame(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FrameReader decodes a stream of frames.
type FrameReader struct {
	br *bufio.Reader
}

// NewFrameReader wraps r for frame decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r)}
}

// Next decodes the next frame into v. It returns io.EOF at a clean
// frame boundary and io.ErrUnexpectedEOF when the stream ends inside a
// frame (a truncated transfer is never a silently short result).
func (f *FrameReader) Next(v any) error {
	n, err := binary.ReadUvarint(f.br)
	if err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			// A stream ending mid-prefix is truncation; only a stream
			// ending exactly between frames is a clean EOF.
			return err
		}
		return fmt.Errorf("cluster: reading frame prefix: %w", err)
	}
	if n > MaxFrame {
		return fmt.Errorf("cluster: frame of %d bytes exceeds the %d-byte limit", n, MaxFrame)
	}
	// The body grows with the bytes that arrive, not with the prefix.
	body, err := io.ReadAll(io.LimitReader(f.br, int64(n)))
	if err == nil && uint64(len(body)) < n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("cluster: reading %d-byte frame: %w", n, err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("cluster: decoding frame: %w", err)
	}
	return nil
}
