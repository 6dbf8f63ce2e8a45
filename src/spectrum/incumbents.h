// Incumbent users of the UHF band: TV broadcasts and wireless microphones.
//
// TV stations are static occupants (a SpectrumMap).  Wireless microphones
// are the source of *temporal variation* (paper Section 2.3): they can
// switch on at any time, anywhere in the band, for unpredictable
// durations.  A run takes its mics as a list of activations
// (World::AddMic), which drive the simulator's scanners and the
// disconnection protocol.
#pragma once

#include "spectrum/spectrum_map.h"
#include "util/units.h"

namespace whitefi {

/// A single microphone on/off interval on one UHF channel.
struct MicActivation {
  UhfIndex channel = 0;
  Us on_time = 0.0;   ///< When the mic switches on (microseconds).
  Us off_time = 0.0;  ///< When the mic switches off; must be > on_time.
};

}  // namespace whitefi
