package experiments

import (
	"encoding/json"
	"os"
)

// WriteJSONReport marshals v as indented JSON and writes it to path
// with a trailing newline — the one place erpc-bench's artifacts
// (BENCH_datapath.json, BENCH_chaos.json) are serialized.
func WriteJSONReport(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
