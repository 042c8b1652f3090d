package fusion

// Mode selects one of the paper's evaluated fusion configurations
// (Section V-A).
type Mode int

// The six configurations of the evaluation (NoFusion is the baseline the
// others are normalised against).
const (
	ModeNoFusion      Mode = iota // no fusion at all
	ModeRISCVFusion               // non-memory Table I idioms only
	ModeCSFSBR                    // consecutive contiguous same-base memory pairs (may be asymmetric)
	ModeRISCVFusionPP             // all Table I idioms (non-memory + memory pairs)
	ModeHelios                    // predictor-driven NCSF/NCTF/DBR memory fusion on top of CSF
	ModeOracle                    // upper bound: all eligible memory pairs + non-memory idioms
)

// Modes lists all configurations in presentation order.
var Modes = []Mode{ModeNoFusion, ModeRISCVFusion, ModeCSFSBR, ModeRISCVFusionPP, ModeHelios, ModeOracle}

func (m Mode) String() string {
	switch m {
	case ModeNoFusion:
		return "NoFusion"
	case ModeRISCVFusion:
		return "RISCVFusion"
	case ModeCSFSBR:
		return "CSF-SBR"
	case ModeRISCVFusionPP:
		return "RISCVFusion++"
	case ModeHelios:
		return "Helios"
	case ModeOracle:
		return "OracleFusion"
	}
	return "?"
}

// ModeByName resolves a configuration name (as printed by String).
func ModeByName(name string) (Mode, bool) {
	for _, m := range Modes {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// NonMemIdioms reports whether the mode fuses non-memory Table I idioms.
func (m Mode) NonMemIdioms() bool {
	return m == ModeRISCVFusion || m == ModeRISCVFusionPP || m == ModeOracle
}

// ConsecutiveMemPairs reports whether the mode fuses consecutive
// contiguous same-base-register memory pairs at decode.
func (m Mode) ConsecutiveMemPairs() bool {
	return m == ModeCSFSBR || m == ModeRISCVFusionPP || m == ModeHelios || m == ModeOracle
}

// Predictive reports whether the Helios UCH+FP predictor drives
// non-consecutive fusion.
func (m Mode) Predictive() bool { return m == ModeHelios }

// OraclePairs reports whether perfect look-ahead pairing is used.
func (m Mode) OraclePairs() bool { return m == ModeOracle }
