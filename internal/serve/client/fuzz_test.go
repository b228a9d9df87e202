package client

import (
	"bytes"
	"testing"

	"repro/internal/serve/apitypes"
)

// FuzzStreamDecode reads arbitrary bytes as a sweep body and as a job
// stream body through the one NDJSON reader both share. Whatever the
// bytes, the reader must not panic, must end in a summary or a non-nil
// error, and must never deliver more items than the input holds lines.
func FuzzStreamDecode(f *testing.F) {
	seeds := []string{
		"{\"workload\":\"a\",\"mode\":\"none\"}\n{\"done\":true,\"cells\":1}\n",
		"{\"seq\":0,\"cell\":{\"workload\":\"a\",\"mode\":\"imt\"}}\n{\"done\":false,\"state\":\"running\",\"next_seq\":1,\"draining\":true}\n",
		"{\"workload\":\"a\",\"mode\":\"none\"}\n",
		"\n\n  \r\n{\"done\":true}",
		"{\"done\":\"yes\"}\n",
		"{\"done\":null}\n{\"done\":true}\n",
		"{\"seq\":\"x\"}\n",
		"{\"done\":true}\n{\"workload\":\"after\"}\n",
		"not json\n",
		"",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				lines++
			}
		}
		check := func(kind string, delivered int, err error) {
			if delivered > lines {
				t.Fatalf("%s: delivered %d items from %d lines", kind, delivered, lines)
			}
			if err == nil && delivered >= lines {
				t.Fatalf("%s: no error, yet all %d lines were items: no summary was read", kind, lines)
			}
		}
		var cells int
		_, err := readStream[apitypes.SweepSummary](bytes.NewReader(data), func(apitypes.CellResult) error {
			cells++
			return nil
		})
		check("sweep", cells, err)
		var frames int
		_, err = readStream[apitypes.JobStreamSummary](bytes.NewReader(data), func(apitypes.JobFrame) error {
			frames++
			return nil
		})
		check("job", frames, err)
	})
}
