package fleet

import (
	"testing"

	"repro/internal/serve"
)

func decodeSpec(t *testing.T, raw string) *serve.JobSpec {
	t.Helper()
	spec, err := serve.DecodeSpec([]byte(raw))
	if err != nil {
		t.Fatalf("decode spec: %v", err)
	}
	return spec
}
