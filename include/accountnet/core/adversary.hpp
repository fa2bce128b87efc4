// Active-adversary policy for the event-driven node and the harness.
//
// An AdversaryPolicy turns a node Byzantine: every flag enables one concrete
// attack against the protocol. The flags are deliberately orthogonal so a
// soak can sweep attack types one at a time (bench/byz_soak) and tests can
// assert the exact detection path each attack trips:
//
//   bias_sample        substitute non-VRF members into the offered sample
//                      (detected inline: kOfferSampleMismatch).
//   forge_history      tamper a suffix entry so its counterpart signature no
//                      longer verifies (detected inline:
//                      kInvalidShuffleSignature).
//   truncate_history   drop the tail of the proof suffix so reconstruction
//                      no longer matches the claim (detected inline:
//                      kReconstructionMismatch).
//   equivocate         present *internally consistent but different*
//                      histories to different counterparts (passes inline
//                      verification; detected by cross-comparing signed
//                      exchanges: kHistoryEquivocation accusations).
//   withhold_testimony as witness, never answer testimony queries (convicted
//                      via the omission challenge timeout).
//   lie_in_testimony   as witness, log a fabricated digest while forwarding
//                      the real payload (detected by the consumer's
//                      testimony audit: kTestimonyMismatch).
//   tamper_relays      as witness, forward an altered payload but still sign
//                      the forward (detected from the signature pair alone:
//                      kRelayTamper).
//   drop_relays        as witness, log the relay but never forward it
//                      (consumer's omission challenge, with
//                      withhold_testimony this is the "silent witness").
//   refuse_shuffles    ignore every round query and shuffle offer (the
//                      paper's refuse-and-separate strategy, Sec. IV-B; not
//                      an accusable offence — partners time out, abort, and
//                      eventually probe the refuser as a suspected leaver).
//
// The relay and testimony attacks and refuse_shuffles need the event-driven
// core::Node; harness::NetworkSim mounts only the four shuffle-facing
// attacks. Both stacks apply the three offer mutations through the one
// routine below, apply_offer_attacks.
//
// attack_rate makes relay/shuffle attacks selective; colluders lets
// bias_sample prefer fellow adversaries, reproducing the paper's
// neighborhood-pollution attack (Fig. 14/18).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "accountnet/core/types.hpp"

namespace accountnet {
class Rng;
}  // namespace accountnet

namespace accountnet::core {

struct ShuffleOffer;

struct AdversaryPolicy {
  bool bias_sample = false;
  bool forge_history = false;
  bool truncate_history = false;
  bool equivocate = false;
  bool withhold_testimony = false;
  bool lie_in_testimony = false;
  bool tamper_relays = false;
  bool drop_relays = false;
  bool refuse_shuffles = false;

  /// Probability an eligible attack is actually applied (selective attacks).
  double attack_rate = 1.0;

  /// Addresses bias_sample prefers to inject (fellow adversaries).
  std::vector<std::string> colluders;

  bool any() const {
    return bias_sample || forge_history || truncate_history || equivocate ||
           withhold_testimony || lie_in_testimony || tamper_relays || drop_relays ||
           refuse_shuffles;
  }

  bool colludes_with(const std::string& addr) const {
    return std::find(colluders.begin(), colluders.end(), addr) != colluders.end();
  }
};

/// A peer identity that exists only in an equivocator's doctored history:
/// the address sorts last ("zz-" prefix keeps real draws mostly unaffected)
/// and the key is a hash nobody holds the secret for — it can never answer,
/// sign, or be framed.
PeerId fabricated_peer(const std::string& owner_addr);

/// Which offer mutations apply_offer_attacks performed.
struct OfferAttacks {
  bool bias_sample = false;
  bool forge_history = false;
  bool truncate_history = false;

  bool any() const { return bias_sample || forge_history || truncate_history; }
};

/// Mounts `policy`'s bias_sample, forge_history and truncate_history attacks
/// on an offer `self_addr` is about to send to `partner_addr`, in that
/// order. Each enabled attack that has something to mutate rolls `rng` once
/// against attack_rate (forge needs a signed last suffix entry, truncate a
/// non-empty suffix), so the caller's draw order is part of the contract:
/// seeded runs replay only if it never changes.
OfferAttacks apply_offer_attacks(const AdversaryPolicy& policy, ShuffleOffer& offer,
                                 const std::string& self_addr,
                                 const std::string& partner_addr, Rng& rng);

}  // namespace accountnet::core
