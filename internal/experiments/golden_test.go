package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"locusroute/internal/obs"
	"locusroute/internal/par"
)

// paperAllSHA256 is the sha256 of `paper -all`'s stdout, the digest CI
// and the benchmark harness also check; paperJSONSHA256 is that of the
// same render's -json document, recorded under the command "paper -all".
const (
	paperAllSHA256  = "848fd4f18a546f8c97d99724c4d85ad0ec9a586cb4f009fd7109080e9f791427"
	paperJSONSHA256 = "613d19bbe2d5fef2eeb732b5707d856379beef4d28376727cfca293cde7b9e38"
)

// TestPaperGolden renders every `paper -all` table exactly as cmd/paper
// prints them, observed as under -json, and checks the text and the
// observability document against their pinned digests, so a change to
// any table or any run document fails Tier-1.
func TestPaperGolden(t *testing.T) {
	s := DefaultSetup()
	s.Pool = par.New(2)
	s.Obs = obs.NewCollector()
	tables, err := RenderSet(TableNames(), BnrE(), MDC(), s)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	for _, tb := range tables {
		text.WriteString(tb)
		text.WriteByte('\n')
	}
	var doc bytes.Buffer
	if err := s.Obs.Snapshot("paper -all").WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		b    []byte
		want string
	}{
		{"paper -all stdout", text.Bytes(), paperAllSHA256},
		{"paper -all -json document", doc.Bytes(), paperJSONSHA256},
	} {
		sum := sha256.Sum256(c.b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s sha256 = %s, want %s", c.what, got, c.want)
		}
	}
}
