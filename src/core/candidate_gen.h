// Candidate generation for the two growth directions of the search
// space table M (paper §4.1):
//
//   horizontal — Apriori prefix join within a row (used to bootstrap
//     row 1, whose cells are complete);
//   vertical   — expanding an (h-1,k)-itemset into all combinations of
//     its items' children (rows >= 2). A leaf shallower than the target
//     level acts as its own child (Figure-3[B] self-copies).

#ifndef FLIPPER_CORE_CANDIDATE_GEN_H_
#define FLIPPER_CORE_CANDIDATE_GEN_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/cancellation.h"
#include "core/cell.h"
#include "data/itemset.h"
#include "taxonomy/taxonomy.h"

namespace flipper {

/// All 2-itemsets over `items` (which must be sorted ascending).
std::vector<Itemset> GeneratePairs(std::span<const ItemId> items);

/// Classic Apriori join + subset pruning over the *complete* cell
/// `prev` (row 1): joins frequent k-itemsets sharing a (k-1)-prefix and
/// keeps results whose every k-subset is frequent in `prev`. The input
/// list must be sorted lexicographically and contain only frequent
/// itemsets. Generation stops early once `max_out` results exist;
/// `*truncated` (if non-null) reports whether that happened, so
/// callers can surface ResourceExhausted without first materializing
/// an oversized candidate vector.
std::vector<Itemset> AprioriJoin(std::span<const Itemset> prev_frequent,
                                 const Cell& prev,
                                 size_t max_out = SIZE_MAX,
                                 bool* truncated = nullptr);

/// Vertical growth: the cartesian product of the effective children of
/// each of `parent`'s items at level `h` (children of internal nodes;
/// the node itself for shallow leaves). Children failing `child_ok`
/// (e.g. infrequent singletons, SIBP-banned items) are skipped.
/// Appends to `out`, stopping once out->size() reaches `max_out`
/// (reported through `truncated` when non-null).
void VerticalExpand(const Itemset& parent, const Taxonomy& taxonomy,
                    int h, const std::function<bool(ItemId)>& child_ok,
                    std::vector<Itemset>* out,
                    size_t max_out = SIZE_MAX,
                    bool* truncated = nullptr);

/// Known-infrequent subset filter for rows >= 2 (where cells are not
/// complete): drops candidates having a (k-1)-subset that was counted
/// in `prev_in_row` and found infrequent. Absent subsets are unknown
/// and do NOT prune. Returns the filtered list — a partial one once
/// `cancel` fires (callers check the token and discard it).
std::vector<Itemset> FilterKnownInfrequentSubsets(
    std::vector<Itemset> candidates, const Cell& prev_in_row,
    const CancelToken* cancel = nullptr);

}  // namespace flipper

#endif  // FLIPPER_CORE_CANDIDATE_GEN_H_
