package dist

import (
	"fmt"

	"repro/internal/mirrored"
	"repro/internal/unet"
)

// ParamHash renders a model's parameter hash as the hex string exchanged in
// done messages and printed by the command layer — the quantity the
// kill-and-rejoin acceptance gate compares across runs.
func ParamHash(m *unet.UNet) string {
	return fmt.Sprintf("%016x", mirrored.ParamHash64(m))
}
