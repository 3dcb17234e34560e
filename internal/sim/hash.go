package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// scenarioHashSchema versions the canonical serialization: the JSON form of
// the normalized Scenario. Bump it whenever a field is added, renamed or
// changes meaning: every cached result and manifest pinned under the old
// schema then stops matching instead of silently colliding with the new one.
const scenarioHashSchema = "cbma/scenario/v2"

// Hash returns the canonical content hash of the scenario — the identity
// under which results may be cached and manifests pinned. Two scenarios
// with equal hashes produce bit-identical Metrics: the hash covers the
// NORMALIZED scenario (defaults applied, tags placed, empty slices nil — so
// "payload 0" and "payload 16" hash equally, as they run equally), and the
// determinism contract (DeriveSeed per-point seeds, worker-count-invariant
// rounds) supplies the converse. The fields proven result-neutral (Workers,
// Obs) are tagged json:"-", so they are excluded by construction.
//
// The digest is the hex SHA-256 of the schema string followed by the JSON —
// filename-safe, so content-addressed stores use it directly.
func (s Scenario) Hash() (string, error) {
	norm := s
	if err := norm.validate(); err != nil {
		return "", fmt.Errorf("sim: hash: %w", err)
	}
	b, err := json.Marshal(norm)
	if err != nil {
		return "", fmt.Errorf("sim: hash: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(scenarioHashSchema))
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}
