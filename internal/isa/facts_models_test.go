package isa_test

import (
	"strings"
	"testing"

	"incore/internal/isa"
	"incore/internal/uarch"
)

// TestFactRowsCoverModels requires a fact row for every mnemonic a
// built-in model lists, so a model that grows a mnemonic must pin its
// FP class and accumulator in TestMnemonicFacts.
func TestFactRowsCoverModels(t *testing.T) {
	pinned := map[string]bool{}
	for _, mn := range isa.FactRowMnemonics() {
		pinned[mn] = true
	}
	for _, key := range []string{"goldencove", "neoversev2", "zen4"} {
		for _, e := range uarch.MustGet(key).Entries {
			if mn, _, _ := strings.Cut(e.Mnemonic, "@"); !pinned[mn] {
				t.Errorf("%s: %q has no row in factRows", key, mn)
			}
		}
	}
}
