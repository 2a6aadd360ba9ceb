package traj

import (
	"errors"
	"fmt"
	"math"
)

// ErrMalformed is wrapped by every error that rejects a trajectory for
// its points rather than for a fault of the matcher: a strict-mode
// sanitizer error, and an input with no valid point left after
// sanitization. The service answers it with 400.
var ErrMalformed = errors.New("malformed trajectory")

// SanitizeMode selects how trajectory sanitization treats malformed
// input points — NaN/Inf coordinates or timestamps, non-monotonic
// timestamps, and zero-duration duplicates. Real cellular feeds
// contain all three (clock glitches, handover artifacts, decoder
// bugs), and each poisons a different stage of the pipeline: NaN
// coordinates void spatial lookups, and non-increasing timestamps
// break the speed filter and transition features.
type SanitizeMode int

const (
	// SanitizeStrict rejects a trajectory containing any malformed
	// point with a descriptive error (the default: garbage in, error
	// out — never a crash downstream).
	SanitizeStrict SanitizeMode = iota
	// SanitizeDrop silently drops malformed points and matches the
	// rest, reporting what was removed.
	SanitizeDrop
	// SanitizeOff disables sanitization (the pre-hardening behavior;
	// malformed points flow into matching and surface as candidate
	// failures there).
	SanitizeOff
)

// String returns the CLI spelling of the mode.
func (m SanitizeMode) String() string {
	switch m {
	case SanitizeStrict:
		return "strict"
	case SanitizeDrop:
		return "drop"
	case SanitizeOff:
		return "off"
	default:
		return fmt.Sprintf("SanitizeMode(%d)", int(m))
	}
}

// ParseSanitizeMode parses the CLI spelling of a sanitize mode.
func ParseSanitizeMode(s string) (SanitizeMode, error) {
	switch s {
	case "strict":
		return SanitizeStrict, nil
	case "drop":
		return SanitizeDrop, nil
	case "off":
		return SanitizeOff, nil
	default:
		return 0, fmt.Errorf("traj: unknown sanitize mode %q (want strict, drop, or off)", s)
	}
}

// SanitizeReport counts what Sanitize removed.
type SanitizeReport struct {
	// BadCoords counts points dropped for NaN/Inf coordinates or
	// timestamps.
	BadCoords int
	// BadTimes counts points dropped for non-increasing timestamps
	// (clock glitches and zero-duration duplicates).
	BadTimes int
}

// Dropped returns the total number of removed points.
func (r SanitizeReport) Dropped() int { return r.BadCoords + r.BadTimes }

func finitePoint(p CellPoint) bool {
	return !math.IsNaN(p.P.X) && !math.IsInf(p.P.X, 0) &&
		!math.IsNaN(p.P.Y) && !math.IsInf(p.P.Y, 0) &&
		!math.IsNaN(p.T) && !math.IsInf(p.T, 0)
}

// Admit is the sanitize rule for one point, point i of a trajectory
// read in order; *lastT is the timestamp of the last kept point (−Inf
// before the first). It reports whether to keep p. A malformed point —
// non-finite coordinates or timestamp, or a timestamp that does not
// strictly increase over *lastT — is an error naming i in strict mode
// and is counted in r and not kept in drop mode. Off keeps every point
// and leaves *lastT alone. Sanitize applies it to a whole trajectory, a
// StreamMatcher to each pushed point.
func (r *SanitizeReport) Admit(mode SanitizeMode, i int, p CellPoint, lastT *float64) (bool, error) {
	if mode == SanitizeOff {
		return true, nil
	}
	switch {
	case !finitePoint(p):
		if mode == SanitizeStrict {
			return false, fmt.Errorf("traj: %w: point %d has non-finite coordinates or timestamp (%v, %v, t=%v)", ErrMalformed, i, p.P.X, p.P.Y, p.T)
		}
		r.BadCoords++
		return false, nil
	case p.T <= *lastT:
		if mode == SanitizeStrict {
			return false, fmt.Errorf("traj: %w: point %d timestamp %v does not increase over %v", ErrMalformed, i, p.T, *lastT)
		}
		r.BadTimes++
		return false, nil
	}
	*lastT = p.T
	return true, nil
}

// Sanitize validates a cellular trajectory per the mode, one Admit per
// point. Strict mode returns the input unchanged or an error naming the
// first malformed point. Drop mode returns a copy with malformed points
// removed and a report of what went. Off returns the input unchanged. A
// clean trajectory is returned as-is in every mode with a zero report.
func Sanitize(ct CellTrajectory, mode SanitizeMode) (CellTrajectory, SanitizeReport, error) {
	var rep SanitizeReport
	lastT := math.Inf(-1)
	var out CellTrajectory // nil until the first dropped point
	for i, p := range ct {
		keep, err := rep.Admit(mode, i, p, &lastT)
		switch {
		case err != nil:
			return nil, rep, err
		case !keep && out == nil:
			out = append(make(CellTrajectory, 0, len(ct)-1), ct[:i]...)
		case keep && out != nil:
			out = append(out, p)
		}
	}
	if out == nil {
		return ct, rep, nil
	}
	return out, rep, nil
}
