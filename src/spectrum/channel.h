// WhiteFi channels: a (center frequency, width) tuple.
//
// A WhiteFi channel is a contiguous slice of UHF spectrum the network
// communicates on.  Following the paper's hardware, a channel is always
// centered on a UHF channel's center frequency and is 5, 10, or 20 MHz
// wide; a 5 MHz channel fits inside one 6 MHz UHF channel, a 10 MHz channel
// spans 3 UHF channels, and a 20 MHz channel spans 5.  This yields the
// paper's 30 + 28 + 26 = 84 possible channels.
#pragma once

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "spectrum/uhf.h"

namespace whitefi {

/// Supported WhiteFi channel widths.
enum class ChannelWidth { kW5 = 0, kW10 = 1, kW20 = 2 };

/// All widths, narrowest first.
inline constexpr std::array<ChannelWidth, 3> kAllWidths = {
    ChannelWidth::kW5, ChannelWidth::kW10, ChannelWidth::kW20};

/// Number of supported widths (the paper's N_W).
inline constexpr int kNumWidths = 3;

// The geometry below runs per radio per transmission in the medium, so it
// is inline; an out-of-range width still throws std::logic_error.

/// Width in MHz (5, 10, or 20).
constexpr MHz WidthMHz(ChannelWidth w) {
  switch (w) {
    case ChannelWidth::kW5: return 5.0;
    case ChannelWidth::kW10: return 10.0;
    case ChannelWidth::kW20: return 20.0;
  }
  throw std::logic_error("bad width");
}

/// Number of UHF channels the width spans on each side of the center
/// (0 for 5 MHz, 1 for 10 MHz, 2 for 20 MHz).
constexpr int HalfSpan(ChannelWidth w) {
  switch (w) {
    case ChannelWidth::kW5: return 0;
    case ChannelWidth::kW10: return 1;
    case ChannelWidth::kW20: return 2;
  }
  throw std::logic_error("bad width");
}

/// Number of UHF channels spanned in total (1, 3, or 5).
constexpr int SpanChannels(ChannelWidth w) { return 2 * HalfSpan(w) + 1; }

/// The width one step narrower; throws for 5 MHz.
ChannelWidth NarrowerWidth(ChannelWidth w);

/// Human-readable label like "10MHz".
std::string WidthLabel(ChannelWidth w);

/// A WhiteFi channel: center UHF channel index + width.
struct Channel {
  UhfIndex center = 0;
  ChannelWidth width = ChannelWidth::kW5;

  friend bool operator==(const Channel&, const Channel&) = default;

  /// Lowest spanned UHF index.
  constexpr UhfIndex Low() const { return center - HalfSpan(width); }

  /// Highest spanned UHF index.
  constexpr UhfIndex High() const { return center + HalfSpan(width); }

  /// True iff all spanned UHF indices are in range (does not check the
  /// channel-37 frequency gap; see IsPhysicallyContiguous).
  bool IsValid() const;

  /// True iff the spanned UHF channels are contiguous in actual frequency,
  /// i.e. the span does not straddle the 608-614 MHz channel-37 gap.
  bool IsPhysicallyContiguous() const;

  /// True iff UHF channel `uhf` lies within this channel's span.
  constexpr bool Contains(UhfIndex uhf) const {
    return uhf >= Low() && uhf <= High();
  }

  /// True iff the two channels share at least one UHF channel.
  constexpr bool Overlaps(const Channel& other) const {
    return Low() <= other.High() && other.Low() <= High();
  }

  /// Label like "(ch28, 20MHz)".
  std::string ToString() const;
};

/// Options controlling channel enumeration.
struct ChannelEnumerationOptions {
  /// When true, channels straddling the channel-37 frequency gap are
  /// excluded.  The paper's counts (30/28/26) treat the band as logically
  /// contiguous, so the default is false.
  bool respect_channel37_gap = false;
};

/// All valid channels of the given width, lowest center first.
std::vector<Channel> ChannelsOfWidth(
    ChannelWidth w, const ChannelEnumerationOptions& options = {});

/// All 84 valid channels (30 + 28 + 26 with default options), grouped by
/// width narrowest-first, each group lowest center first.
std::vector<Channel> AllChannels(const ChannelEnumerationOptions& options = {});

}  // namespace whitefi
