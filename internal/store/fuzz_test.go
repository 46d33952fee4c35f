package store

import (
	"encoding/binary"
	"errors"
	"hash/crc64"
	"testing"
)

// frameArtifact wraps payload in the artifact frame: magic, the current
// version, and the CRC-64 trailer over both and the payload.
func frameArtifact(payload []byte) []byte {
	buf := binary.LittleEndian.AppendUint32([]byte(magic), Version)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
}

// FuzzDecode fuzzes the artifact payload inside a valid frame, so a
// mutation reaches payload parsing instead of failing the checksum. Decode
// must not panic and must fail only with ErrCorrupt; an artifact it accepts
// must re-encode to bytes it accepts again.
func FuzzDecode(f *testing.F) {
	data := Encode(sampleArtifact(f))
	payload := data[len(magic)+4 : len(data)-8]
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		a, err := Decode(frameArtifact(payload))
		if err != nil {
			if a != nil || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode failed with artifact %v and error %v", a, err)
			}
			return
		}
		if _, err := Decode(Encode(a)); err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v", err)
		}
	})
}
