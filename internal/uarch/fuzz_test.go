package uarch

import (
	"bytes"
	"io/fs"
	"testing"
)

// FuzzReadJSON feeds arbitrary bytes to the machine-file reader, which
// takes untrusted input from the service. Any file it accepts must be at
// its canonical form after one write: reading WriteJSON's bytes back
// gives the same fingerprint and port signature, and writing again
// reproduces them byte for byte.
func FuzzReadJSON(f *testing.F) {
	names, err := fs.Glob(machineFiles, "machines/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range names {
		data, err := machineFiles.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if name == "machines/zen4.json" {
			f.Add(data[:len(data)/2])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := m.WriteJSON(&first); err != nil {
			t.Fatalf("write: %v", err)
		}
		again, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("an accepted file's export is refused: %v", err)
		}
		if again.Fingerprint() != m.Fingerprint() {
			t.Errorf("fingerprint %s after a round trip, %s before", again.Fingerprint(), m.Fingerprint())
		}
		if again.PortSignature() != m.PortSignature() {
			t.Errorf("port signature %s after a round trip, %s before", again.PortSignature(), m.PortSignature())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatalf("second write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("second export differs from the first")
		}
	})
}
