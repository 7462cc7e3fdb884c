package trace

import (
	"strings"
	"testing"
)

// withDecodeLimit lowers the per-scope bound of DecodeJSONL's recorder
// for one test.
func withDecodeLimit(t *testing.T, n int) {
	t.Helper()
	old := decodeLimit
	decodeLimit = n
	t.Cleanup(func() { decodeLimit = old })
}

func TestDecodeJSONLRefusesToTruncate(t *testing.T) {
	withDecodeLimit(t, 2)
	line := func(scope string, f int) string {
		if scope != "" {
			scope = `"scope":"` + scope + `",`
		}
		return "{" + scope + `"t":1,"k":"shed","f":` + string(rune('0'+f)) + `,"n":-1}` + "\n"
	}
	// Exactly the limit in every scope decodes whole.
	full := line("", 1) + line("", 2) + line("r000", 1) + "\n" + line("r000", 2)
	rec, err := DecodeJSONL(strings.NewReader(full))
	if err != nil {
		t.Fatalf("stream at the limit: %v", err)
	}
	if rec.Len() != 2 || rec.Child("r000").Len() != 2 || rec.Dropped() != 0 {
		t.Fatalf("decoded %d root + %d child events", rec.Len(), rec.Child("r000").Len())
	}
	for _, tc := range []struct{ stream, want string }{
		{line("", 1) + line("", 2) + line("", 3), `line 3: scope ""`},
		{line("r000", 1) + line("", 1) + line("r000", 2) + "\n" + line("r000", 3), `line 5: scope "r000"`},
	} {
		_, err := DecodeJSONL(strings.NewReader(tc.stream))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("overflowing stream: error %v, want one naming %s", err, tc.want)
		}
	}
}
