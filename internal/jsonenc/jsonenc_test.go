package jsonenc

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// TestAppendStringMatchesMarshal: every string — the escape-worthy ASCII,
// multi-byte runes, U+2028/9 and invalid UTF-8 included — is appended as
// json.Marshal writes it.
func TestAppendStringMatchesMarshal(t *testing.T) {
	cases := []string{
		"", "plain", `quote " and \ backslash`, "max(S.Price) <= min(T.Price) & x > 1",
		"\b\f\n\r\t\x00\x01\x1f\x7f", "héllo 世界", "line\u2028para\u2029end",
		"bad \xff byte", "\xe2\x80", "truncated \xe2\x80\xa8\xe2\x80",
	}
	r := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "<", ">", "&", `"`, `\`, "\n", "\x01", "é", "\u2028", "\u2029", "\xff", "\xe2", "\x80", "😀"}
	for i := 0; i < 2000; i++ {
		var s string
		for n := r.Intn(12); n > 0; n-- {
			s += alphabet[r.Intn(len(alphabet))]
		}
		cases = append(cases, s)
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("prefix"), s); string(got) != "prefix"+string(want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got[len("prefix"):], want)
		}
	}
}
