#include "spectrum/channel.h"

#include <sstream>
#include <stdexcept>

namespace whitefi {

ChannelWidth NarrowerWidth(ChannelWidth w) {
  switch (w) {
    case ChannelWidth::kW20: return ChannelWidth::kW10;
    case ChannelWidth::kW10: return ChannelWidth::kW5;
    case ChannelWidth::kW5: break;
  }
  throw std::invalid_argument("no width narrower than 5 MHz");
}

std::string WidthLabel(ChannelWidth w) {
  std::ostringstream os;
  os << static_cast<int>(WidthMHz(w)) << "MHz";
  return os.str();
}

bool Channel::IsValid() const {
  return IsValidUhfIndex(Low()) && IsValidUhfIndex(High());
}

bool Channel::IsPhysicallyContiguous() const {
  if (!IsValid()) return false;
  for (UhfIndex i = Low(); i < High(); ++i) {
    if (!FrequencyContiguous(i, i + 1)) return false;
  }
  return true;
}

std::string Channel::ToString() const {
  std::ostringstream os;
  os << "(ch" << TvChannelNumber(center) << ", " << WidthLabel(width) << ")";
  return os.str();
}

std::vector<Channel> ChannelsOfWidth(ChannelWidth w,
                                     const ChannelEnumerationOptions& options) {
  std::vector<Channel> out;
  for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
    const Channel channel{c, w};
    if (!channel.IsValid()) continue;
    if (options.respect_channel37_gap && !channel.IsPhysicallyContiguous()) {
      continue;
    }
    out.push_back(channel);
  }
  return out;
}

std::vector<Channel> AllChannels(const ChannelEnumerationOptions& options) {
  std::vector<Channel> out;
  for (ChannelWidth w : kAllWidths) {
    auto group = ChannelsOfWidth(w, options);
    out.insert(out.end(), group.begin(), group.end());
  }
  return out;
}

}  // namespace whitefi
