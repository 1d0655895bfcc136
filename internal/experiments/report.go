package experiments

import (
	"encoding/json"
	"os"
)

// WriteJSONReport marshals v as indented JSON and writes it to path
// with a trailing newline — where erpc-bench's artifact
// (BENCH_chaos.json) is serialized.
func WriteJSONReport(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
