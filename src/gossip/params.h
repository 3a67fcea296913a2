// Anonymous Gossip parameters. Paper-pinned values (section 5.1): one
// gossip message per second per member, at most 10 requested losses per
// message, member cache of 10, lost table of 200, history of 100. Values
// the paper leaves open (p_anon, p_accept, locality weighting) are
// explicit knobs here and are swept by the ablation benches.
#ifndef AG_GOSSIP_PARAMS_H
#define AG_GOSSIP_PARAMS_H

#include <cstddef>
#include <cstdint>

#include "sim/time.h"

namespace ag::gossip {

// Direction of information exchange (paper section 4.4, citing Demers et
// al.): the paper implements pull; push and push-pull are provided for
// the design-space ablation.
enum class ExchangeMode : std::uint8_t {
  pull,       // the paper's protocol: request losses, partner answers
  push,       // proactively ship recent history to the partner
  push_pull,  // both in one message
};

struct GossipParams {
  ExchangeMode exchange_mode{ExchangeMode::pull};
  // Most-recent history entries shipped per round in push modes.
  std::size_t push_budget{3};
  bool enabled{true};
  sim::Duration round_interval{sim::Duration::ms(1000)};
  sim::Duration round_jitter{sim::Duration::ms(200)};
  // Probability of an anonymous walk per round; otherwise cached gossip
  // (section 4.3). Falls back to the other mode when the chosen one has
  // no usable target.
  double p_anon{0.5};
  // Probability that a member hit by a walk accepts rather than
  // propagates (section 4.1: "randomly decides").
  double p_accept{0.5};
  std::size_t max_lost_in_message{10};
  std::size_t member_cache_size{10};
  // Age out member-cache entries not confirmed by traffic for this long —
  // how peers forget departed/crashed members under churn. zero() (the
  // default, and the paper's static-membership setting) disables aging.
  sim::Duration member_cache_ttl{sim::Duration::zero()};
  std::size_t lost_table_capacity{200};
  std::size_t history_capacity{100};
  // Safety bound on walk length; tree propagation already terminates at
  // leaves, this guards against transient loops mid-repair.
  std::uint8_t walk_ttl{16};
  // Locality bias (section 4.2): next hop chosen with weight
  // 1 / nearest_member^alpha. alpha = 0 disables the bias (ablation).
  double locality_alpha{2.0};
  // Nearest-member soft-state refresh, in gossip rounds (edge activation
  // is not atomic, so a MODIFY can be lost; refresh repairs the gradient).
  std::uint32_t nm_refresh_rounds{5};
  // Replies per handled gossip request (lost buffer answers plus
  // beyond-expected pushes share this budget).
  std::size_t reply_budget{10};
  sim::Duration reply_spacing{sim::Duration::ms(5)};
};

}  // namespace ag::gossip

#endif  // AG_GOSSIP_PARAMS_H
