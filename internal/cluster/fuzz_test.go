package cluster

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzFrameReader feeds arbitrary bytes to the frame decoder as each
// message an inter-node route reads. It must not panic, must fail only
// with the documented error classes (a clean io.EOF, truncation as
// io.ErrUnexpectedEOF, or a prefix, size or JSON error), and every frame
// it decodes must re-encode to a frame that decodes the same.
func FuzzFrameReader(f *testing.F) {
	for _, v := range []any{
		Record{Key: "abc", Signer: "fp", Epoch: 3, Degraded: true, Signatures: 1},
		EpochAnnounce{Epoch: 9, Reason: "signer revoked"},
		MemberUpdate{Epoch: 2, Members: []Member{{Name: "edge-0", URL: "http://127.0.0.1:1"}}},
	} {
		frame, err := EncodeFrame(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(append(bytes.Clone(frame), frame...))
		f.Add(frame[:len(frame)-1])
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{0x80, 0x80, 0x80, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzFrames[Record](t, data)
		fuzzFrames[EpochAnnounce](t, data)
		fuzzFrames[MemberUpdate](t, data)
	})
}

func fuzzFrames[T any](t *testing.T, data []byte) {
	fr := NewFrameReader(bytes.NewReader(data))
	for {
		var v T
		err := fr.Next(&v)
		if err == io.EOF {
			return
		}
		if err != nil {
			if !errors.Is(err, io.ErrUnexpectedEOF) && !strings.HasPrefix(err.Error(), "cluster: ") {
				t.Fatalf("%T: undocumented error %v", v, err)
			}
			return
		}
		if len(data) > MaxFrame/6 {
			// JSON escaping can grow a string sixfold, past what
			// EncodeFrame accepts.
			continue
		}
		frame, err := EncodeFrame(v)
		if err != nil {
			t.Fatalf("%T: decoded %+v does not re-encode: %v", v, v, err)
		}
		var again T
		if err := NewFrameReader(bytes.NewReader(frame)).Next(&again); err != nil {
			t.Fatalf("%T: re-encoded frame does not decode: %v", v, err)
		}
		if !reflect.DeepEqual(v, again) {
			t.Fatalf("%T: re-decoded %+v, want %+v", v, again, v)
		}
	}
}
