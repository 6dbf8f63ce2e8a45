// Umbrella header: the full WhiteFi public API.
//
// Include this to get the spectrum model, the PHY/SIFT signal pipeline,
// the discrete-event simulator, and the WhiteFi protocol (MCham spectrum
// assignment, L-/J-SIFT discovery, chirp-based disconnection handling).
#pragma once

#include "audio/mos.h"
#include "core/ap.h"
#include "core/assignment.h"
#include "core/client.h"
#include "core/discovery.h"
#include "core/mcham.h"
#include "core/sim_discovery.h"
#include "phy/attenuation.h"
#include "phy/noncontiguous.h"
#include "phy/signal.h"
#include "phy/timing.h"
#include "sift/airtime.h"
#include "sift/chirp.h"
#include "sift/detector.h"
#include "sift/matcher.h"
#include "sim/scanner.h"
#include "sim/signal_scanner.h"
#include "sim/traffic.h"
#include "sim/world.h"
#include "spectrum/campus.h"
#include "spectrum/geodb.h"
#include "spectrum/incumbents.h"
#include "spectrum/locales.h"
#include "spectrum/spectrum_map.h"
#include "util/config.h"
#include "util/log.h"
#include "util/report.h"
#include "util/stats.h"
