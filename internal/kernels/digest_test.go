package kernels

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"incore/internal/isa"
)

// Digests of the full 416-block suite in suite order. They pin the
// emitters' bytes and what the parser builds from them, so a rewrite of
// either must reproduce every block exactly. Change them only together
// with a deliberate change to the generated code.
const (
	// suiteTextDigest is the sha256 of the emitters' texts, concatenated.
	suiteTextDigest = "0b0099588ab84648049e5cb7cb7333fa87cd4b52c61e5d31094d553dd5767fcb"
	// suiteParsedDigest is the sha256 of json.Marshal(tb.Block),
	// concatenated.
	suiteParsedDigest = "331055486618c476f204a53eafbad082f3dba1cec6729a52e054dfea68a9a139"
)

// emittedText returns the assembly text Generate parses for tb.
func emittedText(t *testing.T, tb TestBlock) string {
	t.Helper()
	emit := emitX86
	if tb.Block.Dialect == isa.DialectAArch64 {
		emit = emitAArch64
	}
	text, err := emitText(emit, tb.Kernel, deriveParams(tb.Kernel, tb.Config))
	if err != nil {
		t.Fatalf("%s: %v", tb.Block.Name, err)
	}
	return text
}

func TestSuiteParsedDigest(t *testing.T) {
	full, err := FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	texts, parsed := sha256.New(), sha256.New()
	for _, tb := range full {
		texts.Write([]byte(emittedText(t, tb)))
		data, err := json.Marshal(tb.Block)
		if err != nil {
			t.Fatal(err)
		}
		parsed.Write(data)
	}
	if got := hex.EncodeToString(texts.Sum(nil)); got != suiteTextDigest {
		t.Errorf("emitted suite text digest = %s, want %s", got, suiteTextDigest)
	}
	if got := hex.EncodeToString(parsed.Sum(nil)); got != suiteParsedDigest {
		t.Errorf("parsed suite digest = %s, want %s", got, suiteParsedDigest)
	}
}
