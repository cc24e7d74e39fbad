package storenet

import (
	"regexp"
	"strings"
	"testing"
)

// TestValidDigestMatchesGrammar: validDigest accepts exactly the
// digests of the grammar ^[A-Za-z0-9_-][A-Za-z0-9._-]{0,127}$, on its
// edges and on every two-byte string over a mixed alphabet.
func TestValidDigestMatchesGrammar(t *testing.T) {
	grammar := regexp.MustCompile(`^[A-Za-z0-9_-][A-Za-z0-9._-]{0,127}$`)
	hex := strings.Repeat("ab", 32)
	cases := []string{
		"", "a", "Z", "0", ".", "-", "_", "/", " ",
		".a", "-a", "_a", "a.", "a..b", "..", "a/b", "a\\b", "a b", "a\n", "\na",
		hex, "manifest", "cafe.json",
		strings.Repeat("a", 127), strings.Repeat("a", 128), strings.Repeat("a", 129),
		"." + strings.Repeat("a", 127), "-" + strings.Repeat("a", 127),
		"é", "aé", "a\x00", "\xff", "a\x7f", "a→b", "日本",
		strings.Repeat("é", 64), strings.Repeat("é", 65),
	}
	alphabet := "aZ09._-/ é\x00\xff"
	for _, x := range alphabet {
		for _, y := range alphabet {
			cases = append(cases, string(x), string(x)+string(y))
		}
	}
	for _, d := range cases {
		if got, want := validDigest(d), grammar.MatchString(d); got != want {
			t.Errorf("validDigest(%q) = %v, grammar says %v", d, got, want)
		}
	}
}
