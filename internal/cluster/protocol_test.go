package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	in := Record{Key: "abc123", Signer: "fp:1", Epoch: 7, Degraded: true, Signatures: 2}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	var out Record
	if err := NewFrameReader(&buf).Next(&out); err != nil {
		t.Fatalf("Next: %v", err)
	}
	if out != in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestFrameStream(t *testing.T) {
	var buf bytes.Buffer
	want := []Record{
		{Key: "k1", Epoch: 1},
		{Key: "k2", Epoch: 2, Signer: "fp:2"},
		{Key: "k3", Epoch: 3, Signatures: 5},
	}
	for _, rd := range want {
		if err := WriteFrame(&buf, rd); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	fr := NewFrameReader(&buf)
	var got []Record
	for {
		var rd Record
		err := fr.Next(&rd)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, rd)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestFrameTruncation distinguishes a clean stream end (io.EOF) from a
// mid-frame cut (io.ErrUnexpectedEOF): an edge bootstrap pull that dies
// mid-record must surface as an error, not a short-but-successful sync.
func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Record{Key: "whole", Epoch: 1}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	whole := buf.Len()
	if err := WriteFrame(&buf, Record{Key: "cut", Epoch: 2}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	for cut := whole + 1; cut < buf.Len(); cut += 3 {
		fr := NewFrameReader(bytes.NewReader(buf.Bytes()[:cut]))
		var rd Record
		if err := fr.Next(&rd); err != nil {
			t.Fatalf("cut=%d: first frame: %v", cut, err)
		}
		err := fr.Next(&rd)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut=%d: truncated frame returned %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// The clean boundary is EOF, not an error.
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()[:whole]))
	var rd Record
	if err := fr.Next(&rd); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if err := fr.Next(&rd); err != io.EOF {
		t.Errorf("clean boundary returned %v, want io.EOF", err)
	}
}

// TestFrameOversize checks the MaxFrame guard on both sides: a frame
// claiming more than MaxFrame bytes is rejected before any allocation,
// so a corrupt or hostile peer cannot balloon an edge's memory.
func TestFrameOversize(t *testing.T) {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], MaxFrame+1)
	var rd Record
	err := NewFrameReader(bytes.NewReader(hdr[:n])).Next(&rd)
	if err == nil {
		t.Fatal("oversize frame accepted")
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("oversize frame returned %v, want a size error", err)
	}

	if _, err := EncodeFrame(bytes.Repeat([]byte("x"), MaxFrame+1)); err == nil {
		t.Error("EncodeFrame accepted a payload larger than MaxFrame")
	}
}

// TestFrameLonePrefixAllocatesLittle: a prefix declaring the largest
// legal frame, with no body behind it, costs what arrives, not what it
// declares.
func TestFrameLonePrefixAllocatesLittle(t *testing.T) {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], MaxFrame)
	const runs = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		var rd Record
		if err := NewFrameReader(bytes.NewReader(hdr[:n])).Next(&rd); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("lone prefix returned %v, want io.ErrUnexpectedEOF", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("a lone %d-byte prefix allocated %d bytes, want < 64 KiB", MaxFrame, per)
	}
}

func TestFrameBadJSON(t *testing.T) {
	body := []byte("{not json")
	var buf bytes.Buffer
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(body)))
	buf.Write(hdr[:n])
	buf.Write(body)
	var rd Record
	if err := NewFrameReader(&buf).Next(&rd); err == nil {
		t.Error("malformed JSON frame accepted")
	}
}
