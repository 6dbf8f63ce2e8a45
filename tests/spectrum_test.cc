// Unit + property tests for the spectrum model: UHF channels, WhiteFi
// channels, spectrum maps, locales, and the campus model.
#include <gtest/gtest.h>

#include <algorithm>

#include "spectrum/campus.h"
#include "spectrum/channel.h"
#include "spectrum/locales.h"
#include "spectrum/spectrum_map.h"
#include "spectrum/uhf.h"
#include "util/stats.h"

namespace whitefi {
namespace {

// ------------------------------------------------------------------ uhf ---

TEST(Uhf, IndexTvChannelRoundTripAll30) {
  for (UhfIndex i = 0; i < kNumUhfChannels; ++i) {
    const int tv = TvChannelNumber(i);
    EXPECT_GE(tv, 21);
    EXPECT_LE(tv, 51);
    EXPECT_NE(tv, 37);
    EXPECT_EQ(IndexOfTvChannel(tv), i);
  }
}

TEST(Uhf, KnownMappings) {
  EXPECT_EQ(TvChannelNumber(0), 21);
  EXPECT_EQ(TvChannelNumber(15), 36);
  EXPECT_EQ(TvChannelNumber(16), 38);
  EXPECT_EQ(TvChannelNumber(29), 51);
}

TEST(Uhf, Frequencies) {
  // Channel 21 occupies 512-518 MHz.
  EXPECT_DOUBLE_EQ(LowEdgeMHz(IndexOfTvChannel(21)), 512.0);
  EXPECT_DOUBLE_EQ(CenterFrequencyMHz(IndexOfTvChannel(21)), 515.0);
  // Channel 51 ends at 698 MHz (the top of the paper's 180 MHz band).
  EXPECT_DOUBLE_EQ(LowEdgeMHz(IndexOfTvChannel(51)) + kUhfChannelWidthMHz,
                   698.0);
  // Channel 38 starts at 614 MHz (above the 608-614 MHz channel 37).
  EXPECT_DOUBLE_EQ(LowEdgeMHz(IndexOfTvChannel(38)), 614.0);
}

TEST(Uhf, InvalidInputsThrow) {
  EXPECT_THROW(TvChannelNumber(-1), std::out_of_range);
  EXPECT_THROW(TvChannelNumber(30), std::out_of_range);
  EXPECT_THROW(IndexOfTvChannel(20), std::out_of_range);
  EXPECT_THROW(IndexOfTvChannel(37), std::out_of_range);
  EXPECT_THROW(IndexOfTvChannel(52), std::out_of_range);
}

TEST(Uhf, ContiguityBreaksOnlyAtChannel37) {
  for (UhfIndex i = 0; i + 1 < kNumUhfChannels; ++i) {
    EXPECT_EQ(FrequencyContiguous(i, i + 1), i != 15) << "index " << i;
  }
  EXPECT_FALSE(FrequencyContiguous(3, 5));  // Non-adjacent indices.
  EXPECT_FALSE(FrequencyContiguous(5, 5));
  EXPECT_FALSE(FrequencyContiguous(-1, 0));
}

TEST(Uhf, Label) {
  EXPECT_EQ(UhfChannelLabel(0), "ch21(515MHz)");
}

// -------------------------------------------------------------- channel ---

TEST(Channel, WidthProperties) {
  EXPECT_DOUBLE_EQ(WidthMHz(ChannelWidth::kW5), 5.0);
  EXPECT_DOUBLE_EQ(WidthMHz(ChannelWidth::kW10), 10.0);
  EXPECT_DOUBLE_EQ(WidthMHz(ChannelWidth::kW20), 20.0);
  EXPECT_EQ(SpanChannels(ChannelWidth::kW5), 1);
  EXPECT_EQ(SpanChannels(ChannelWidth::kW10), 3);
  EXPECT_EQ(SpanChannels(ChannelWidth::kW20), 5);
  EXPECT_EQ(NarrowerWidth(ChannelWidth::kW20), ChannelWidth::kW10);
  EXPECT_EQ(NarrowerWidth(ChannelWidth::kW10), ChannelWidth::kW5);
  EXPECT_THROW(NarrowerWidth(ChannelWidth::kW5), std::invalid_argument);
  EXPECT_EQ(WidthLabel(ChannelWidth::kW10), "10MHz");
}

TEST(Channel, GeometryIsConstexprAndRejectsABadWidth) {
  static_assert(SpanChannels(ChannelWidth::kW20) == 5);
  static_assert(Channel{10, ChannelWidth::kW10}.Overlaps(
      Channel{11, ChannelWidth::kW5}));
  static_assert(!Channel{10, ChannelWidth::kW10}.Overlaps(
      Channel{12, ChannelWidth::kW5}));
  static_assert(!Channel{10, ChannelWidth::kW10}.Contains(12));
  const auto bad = static_cast<ChannelWidth>(7);
  EXPECT_THROW(WidthMHz(bad), std::logic_error);
  EXPECT_THROW(HalfSpan(bad), std::logic_error);
  EXPECT_THROW(SpanChannels(bad), std::logic_error);
}

TEST(Channel, PaperCounts30_28_26) {
  EXPECT_EQ(ChannelsOfWidth(ChannelWidth::kW5).size(), 30u);
  EXPECT_EQ(ChannelsOfWidth(ChannelWidth::kW10).size(), 28u);
  EXPECT_EQ(ChannelsOfWidth(ChannelWidth::kW20).size(), 26u);
  EXPECT_EQ(AllChannels().size(), 84u);  // Paper footnote 3.
}

TEST(Channel, GapAwareEnumerationExcludesStraddlers) {
  const ChannelEnumerationOptions gap{.respect_channel37_gap = true};
  // 10 MHz channels centered at indices 15 and 16 straddle the gap.
  EXPECT_EQ(ChannelsOfWidth(ChannelWidth::kW10, gap).size(), 26u);
  // 20 MHz channels centered at 14, 15, 16, 17 straddle it.
  EXPECT_EQ(ChannelsOfWidth(ChannelWidth::kW20, gap).size(), 22u);
  EXPECT_EQ(ChannelsOfWidth(ChannelWidth::kW5, gap).size(), 30u);
  EXPECT_EQ(AllChannels(gap).size(), 78u);
}

TEST(Channel, SpanAndContains) {
  const Channel c{10, ChannelWidth::kW20};
  EXPECT_EQ(c.Low(), 8);
  EXPECT_EQ(c.High(), 12);
  EXPECT_TRUE(c.Contains(8));
  EXPECT_TRUE(c.Contains(12));
  EXPECT_FALSE(c.Contains(7));
  EXPECT_FALSE(c.Contains(13));
}

TEST(Channel, Validity) {
  EXPECT_TRUE((Channel{0, ChannelWidth::kW5}.IsValid()));
  EXPECT_FALSE((Channel{0, ChannelWidth::kW10}.IsValid()));
  EXPECT_FALSE((Channel{1, ChannelWidth::kW20}.IsValid()));
  EXPECT_TRUE((Channel{2, ChannelWidth::kW20}.IsValid()));
  EXPECT_FALSE((Channel{28, ChannelWidth::kW20}.IsValid()));
  EXPECT_TRUE((Channel{27, ChannelWidth::kW20}.IsValid()));
}

TEST(Channel, PhysicalContiguity) {
  // Center 15 (ch36) at 10 MHz spans indices 14..16, which straddles the
  // channel-37 frequency gap.
  EXPECT_FALSE((Channel{15, ChannelWidth::kW10}.IsPhysicallyContiguous()));
  EXPECT_TRUE((Channel{14, ChannelWidth::kW10}.IsPhysicallyContiguous()));
  EXPECT_TRUE((Channel{15, ChannelWidth::kW5}.IsPhysicallyContiguous()));
  EXPECT_FALSE((Channel{16, ChannelWidth::kW20}.IsPhysicallyContiguous()));
}

TEST(Channel, Overlaps) {
  const Channel a{10, ChannelWidth::kW20};  // 8..12
  const Channel b{13, ChannelWidth::kW10};  // 12..14
  const Channel c{15, ChannelWidth::kW5};   // 15
  EXPECT_TRUE(a.Overlaps(b));
  EXPECT_TRUE(b.Overlaps(a));
  EXPECT_FALSE(a.Overlaps(c));
  EXPECT_TRUE(a.Overlaps(a));
}

TEST(Channel, ToStringUsesTvNumbers) {
  EXPECT_EQ((Channel{0, ChannelWidth::kW5}.ToString()), "(ch21, 5MHz)");
  EXPECT_EQ((Channel{7, ChannelWidth::kW20}.ToString()), "(ch28, 20MHz)");
}

// Property: every enumerated channel is valid, and enumeration is sorted by
// center within each width.
TEST(Channel, EnumerationProperties) {
  for (ChannelWidth w : kAllWidths) {
    const auto channels = ChannelsOfWidth(w);
    for (std::size_t i = 0; i < channels.size(); ++i) {
      EXPECT_TRUE(channels[i].IsValid());
      EXPECT_EQ(channels[i].width, w);
      if (i > 0) {
        EXPECT_LT(channels[i - 1].center, channels[i].center);
      }
    }
  }
}

// --------------------------------------------------------- spectrum map ---

TEST(SpectrumMap, DefaultAllFree) {
  const SpectrumMap map;
  EXPECT_EQ(map.NumFree(), 30);
  EXPECT_EQ(map.NumOccupied(), 0);
  EXPECT_EQ(map.FreeFragments().size(), 1u);
  EXPECT_EQ(map.WidestFragment(), 30);
}

TEST(SpectrumMap, ConstructionVariants) {
  const auto a = SpectrumMap::FromOccupiedIndices({0, 5, 29});
  EXPECT_TRUE(a.Occupied(0));
  EXPECT_TRUE(a.Occupied(5));
  EXPECT_TRUE(a.Occupied(29));
  EXPECT_EQ(a.NumOccupied(), 3);

  const auto b = SpectrumMap::FromOccupiedTvChannels({21, 51});
  EXPECT_TRUE(b.Occupied(0));
  EXPECT_TRUE(b.Occupied(29));
  EXPECT_EQ(b.NumOccupied(), 2);

  const auto c = SpectrumMap::FromFreeTvChannels({21, 22});
  EXPECT_EQ(c.NumFree(), 2);
  EXPECT_TRUE(c.Free(0));
  EXPECT_TRUE(c.Free(1));
}

TEST(SpectrumMap, SetFlipAndBounds) {
  SpectrumMap map;
  map.SetOccupied(3);
  EXPECT_TRUE(map.Occupied(3));
  map.Flip(3);
  EXPECT_FALSE(map.Occupied(3));
  EXPECT_THROW(map.SetOccupied(30), std::out_of_range);
  EXPECT_THROW(map.Occupied(-1), std::out_of_range);
  EXPECT_THROW(map.Flip(99), std::out_of_range);
}

TEST(SpectrumMap, UnionWith) {
  const auto a = SpectrumMap::FromOccupiedIndices({1, 2});
  const auto b = SpectrumMap::FromOccupiedIndices({2, 3});
  const auto u = a.UnionWith(b);
  EXPECT_TRUE(u.Occupied(1));
  EXPECT_TRUE(u.Occupied(2));
  EXPECT_TRUE(u.Occupied(3));
  EXPECT_EQ(u.NumOccupied(), 3);
}

TEST(SpectrumMap, FreeFragments) {
  // Occupied: 0, 4, 5, 29 -> free runs: [1..3], [6..28].
  const auto map = SpectrumMap::FromOccupiedIndices({0, 4, 5, 29});
  const auto fragments = map.FreeFragments();
  ASSERT_EQ(fragments.size(), 2u);
  EXPECT_EQ(fragments[0], (Fragment{1, 3}));
  EXPECT_EQ(fragments[1], (Fragment{6, 23}));
  EXPECT_EQ(map.WidestFragment(), 23);
  EXPECT_DOUBLE_EQ(fragments[0].WidthMHz(), 18.0);
}

TEST(SpectrumMap, FreeFragmentsSplitAtGapWhenRequested) {
  const SpectrumMap map;  // All free.
  const auto split = map.FreeFragments(/*respect_gap=*/true);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0], (Fragment{0, 16}));
  EXPECT_EQ(split[1], (Fragment{16, 14}));
  EXPECT_EQ(map.WidestFragment(true), 16);
}

TEST(SpectrumMap, CanUse) {
  const auto map = SpectrumMap::FromOccupiedIndices({10});
  EXPECT_TRUE(map.CanUse(Channel{5, ChannelWidth::kW20}));
  EXPECT_FALSE(map.CanUse(Channel{9, ChannelWidth::kW10}));   // spans 8..10
  EXPECT_FALSE(map.CanUse(Channel{10, ChannelWidth::kW5}));
  EXPECT_TRUE(map.CanUse(Channel{11, ChannelWidth::kW5}));
  EXPECT_FALSE(map.CanUse(Channel{0, ChannelWidth::kW20}));   // invalid span
  // Gap-aware: ch36-centered 10 MHz straddles the frequency gap.
  EXPECT_TRUE(map.CanUse(Channel{15, ChannelWidth::kW10}, false));
  EXPECT_FALSE(map.CanUse(Channel{15, ChannelWidth::kW10}, true));
}

TEST(SpectrumMap, UsableChannelsMatchesCanUse) {
  Rng rng(13);
  const auto map = SpectrumMap::RandomOccupied(12, rng);
  const auto usable = map.UsableChannels();
  for (const Channel& c : AllChannels()) {
    const bool in =
        std::find(usable.begin(), usable.end(), c) != usable.end();
    EXPECT_EQ(in, map.CanUse(c)) << c.ToString();
  }
}

TEST(SpectrumMap, RandomOccupiedExactCount) {
  Rng rng(14);
  for (int n : {0, 1, 15, 30}) {
    EXPECT_EQ(SpectrumMap::RandomOccupied(n, rng).NumOccupied(), n);
  }
  EXPECT_THROW(SpectrumMap::RandomOccupied(-1, rng), std::invalid_argument);
  EXPECT_THROW(SpectrumMap::RandomOccupied(31, rng), std::invalid_argument);
}

TEST(SpectrumMap, HammingDistance) {
  const auto a = SpectrumMap::FromOccupiedIndices({1, 2, 3});
  const auto b = SpectrumMap::FromOccupiedIndices({3, 4});
  EXPECT_EQ(SpectrumMap::HammingDistance(a, b), 3);
  EXPECT_EQ(SpectrumMap::HammingDistance(a, a), 0);
}

TEST(SpectrumMap, RandomlyFlippedStatistics) {
  Rng rng(15);
  const SpectrumMap base;
  double total = 0.0;
  const int trials = 400;
  for (int i = 0; i < trials; ++i) {
    total += SpectrumMap::HammingDistance(base, base.RandomlyFlipped(0.1, rng));
  }
  // Expected flips per map: 30 * 0.1 = 3.
  EXPECT_NEAR(total / trials, 3.0, 0.4);
  // p = 0 flips nothing.
  EXPECT_EQ(SpectrumMap::HammingDistance(base, base.RandomlyFlipped(0.0, rng)),
            0);
}

TEST(SpectrumMap, FreeIndicesAndToString) {
  const auto map = SpectrumMap::FromOccupiedIndices({0, 29});
  const auto free = map.FreeIndices();
  EXPECT_EQ(free.size(), 28u);
  EXPECT_EQ(free.front(), 1);
  EXPECT_EQ(free.back(), 28);
  const std::string s = map.ToString();
  EXPECT_EQ(s.size(), 30u);
  EXPECT_EQ(s.front(), 'X');
  EXPECT_EQ(s.back(), 'X');
  EXPECT_EQ(s[1], '.');
}

// Property: fragments partition the free set, are maximal and disjoint.
class FragmentProperty : public ::testing::TestWithParam<int> {};

TEST_P(FragmentProperty, FragmentsPartitionFreeChannels) {
  Rng rng(100 + GetParam());
  const auto map = SpectrumMap::RandomOccupied(GetParam() % 31, rng);
  const auto fragments = map.FreeFragments();
  int covered = 0;
  int previous_end = -2;
  for (const Fragment& f : fragments) {
    EXPECT_GT(f.length, 0);
    // Maximality: neighbors are occupied or out of range.
    if (f.start > 0) {
      EXPECT_TRUE(map.Occupied(f.start - 1));
    }
    if (f.start + f.length < kNumUhfChannels) {
      EXPECT_TRUE(map.Occupied(f.start + f.length));
    }
    // Disjoint and ordered.
    EXPECT_GT(f.start, previous_end);
    previous_end = f.start + f.length - 1;
    for (int k = 0; k < f.length; ++k) EXPECT_TRUE(map.Free(f.start + k));
    covered += f.length;
  }
  EXPECT_EQ(covered, map.NumFree());
}

INSTANTIATE_TEST_SUITE_P(RandomMaps, FragmentProperty,
                         ::testing::Range(0, 40));

// -------------------------------------------------------------- locales ---

TEST(Locales, OccupiedCountsWithinModelRanges) {
  Rng rng(22);
  for (LocaleClass locale : kAllLocaleClasses) {
    const LocaleModel model = DefaultLocaleModel(locale);
    for (int i = 0; i < 30; ++i) {
      const auto map = GenerateLocaleMap(locale, rng);
      EXPECT_GE(map.NumOccupied(), model.min_occupied);
      EXPECT_LE(map.NumOccupied(), model.max_occupied);
    }
  }
}

TEST(Locales, RuralFreerThanUrban) {
  Rng rng(23);
  double urban_free = 0.0, rural_free = 0.0;
  for (int i = 0; i < 50; ++i) {
    urban_free += GenerateLocaleMap(LocaleClass::kUrban, rng).NumFree();
    rural_free += GenerateLocaleMap(LocaleClass::kRural, rng).NumFree();
  }
  EXPECT_GT(rural_free, urban_free * 1.5);
}

TEST(Locales, FragmentHistogramTotalsMatch) {
  Rng rng(24);
  const auto maps = GenerateLocales(LocaleClass::kSuburban, 10, rng);
  EXPECT_EQ(maps.size(), 10u);
  const IntHistogram hist = FragmentWidthHistogram(maps);
  std::size_t expected = 0;
  for (const auto& map : maps) expected += map.FreeFragments().size();
  EXPECT_EQ(hist.Total(), expected);
}

TEST(Locales, Figure2Shape) {
  // The paper's Figure 2 anchors: every class shows a fragment of >= 4
  // channels somewhere across its 10 locales; rural reaches ~16 channels.
  Rng rng(25);
  for (LocaleClass locale : kAllLocaleClasses) {
    int best = 0;
    for (const auto& map : GenerateLocales(locale, 10, rng)) {
      best = std::max(best, map.WidestFragment());
    }
    EXPECT_GE(best, 4) << LocaleClassName(locale);
  }
  int rural_best = 0;
  for (const auto& map : GenerateLocales(LocaleClass::kRural, 10, rng)) {
    rural_best = std::max(rural_best, map.WidestFragment());
  }
  EXPECT_GE(rural_best, 12);
}

TEST(Locales, Names) {
  EXPECT_EQ(LocaleClassName(LocaleClass::kUrban), "urban");
  EXPECT_EQ(LocaleClassName(LocaleClass::kSuburban), "suburban");
  EXPECT_EQ(LocaleClassName(LocaleClass::kRural), "rural");
}

// --------------------------------------------------------------- campus ---

TEST(Campus, SimulationMapMatchesPaper) {
  const SpectrumMap map = CampusSimulationMap();
  // "There are 17 free UHF channels, and the widest contiguous white space
  // is 36 MHz" (Section 5.4).
  EXPECT_EQ(map.NumFree(), 17);
  EXPECT_EQ(map.WidestFragment(), 6);  // 6 * 6 MHz = 36 MHz.
}

TEST(Campus, Building5MapMatchesPaper) {
  const SpectrumMap map = Building5Map();
  EXPECT_EQ(map.NumFree(), 10);
  for (int tv : {26, 27, 28, 29, 30, 33, 34, 35, 39, 48}) {
    EXPECT_TRUE(map.Free(IndexOfTvChannel(tv))) << tv;
  }
  // Fragments: 26-30 (5 ch = 20 MHz usable), 33-35 (10 MHz), 39, 48.
  const auto fragments = map.FreeFragments();
  ASSERT_EQ(fragments.size(), 4u);
  EXPECT_EQ(fragments[0].length, 5);
  EXPECT_EQ(fragments[1].length, 3);
  EXPECT_EQ(fragments[2].length, 1);
  EXPECT_EQ(fragments[3].length, 1);
}

TEST(Campus, PairwiseHammingCount) {
  Rng rng(26);
  const auto maps =
      GenerateBuildingMaps(CampusSimulationMap(), CampusVariationParams{}, rng);
  EXPECT_EQ(maps.size(), 9u);
  EXPECT_EQ(PairwiseHammingDistances(maps).size(), 36u);  // 9*8/2.
}

TEST(Campus, MedianHammingNearPaperValue) {
  // Section 2.1: "the median number of channels available at one point but
  // unavailable at another is close to 7".  Average the median over many
  // 9-building draws to damp sampling noise.
  Rng rng(27);
  std::vector<double> medians;
  for (int trial = 0; trial < 30; ++trial) {
    const auto maps = GenerateBuildingMaps(CampusSimulationMap(),
                                           CampusVariationParams{}, rng);
    medians.push_back(Median(PairwiseHammingDistances(maps)));
  }
  EXPECT_NEAR(Mean(medians), 7.0, 1.0);
}

}  // namespace
}  // namespace whitefi
