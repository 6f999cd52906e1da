// Dragonfly topology: flat router/link indexing, coordinate math,
// global-link (blue) assignment, and path construction.
//
// Link model: every physical cable is represented as two *directed*
// links with independent capacity, which is how credit-based flow
// control behaves and what the per-tile Aries counters observe.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "net/config.hpp"

namespace dfv::net {

/// Link color/class as in the Cray XC dragonfly (Fig. 2 of the paper).
enum class LinkType : std::uint8_t { Green, Black, Blue };

[[nodiscard]] const char* to_string(LinkType t) noexcept;

/// Endpoint/metadata record for one directed link.
struct LinkInfo {
  RouterId from = kInvalidRouter;
  RouterId to = kInvalidRouter;
  LinkType type = LinkType::Green;
  double capacity = 0.0;  ///< bytes/second, one direction
  double latency = 0.0;   ///< seconds
};

/// The contiguous LinkId range [begin, end) of one link class; every link
/// in it has this capacity (the same double its LinkInfo holds).
struct LinkClassRange {
  LinkId begin = 0;
  LinkId end = 0;
  double capacity = 0.0;
};

/// Fixed-capacity inline list of directed links: building, copying and
/// choosing routes never touches the heap. Pushing past the capacity is
/// a ContractError.
class LinkList {
 public:
  /// Longest dragonfly route: Valiant is 2 intra + blue + 2 intra + blue
  /// + 2 intra hops; a minimal route is at most 5.
  static constexpr std::size_t kCapacity = 8;

  void push_back(LinkId id) {
    DFV_CHECK_MSG(size_ < kCapacity, "a dragonfly path holds at most 8 links");
    ids_[size_++] = id;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] LinkId operator[](std::size_t i) const noexcept { return ids_[i]; }
  [[nodiscard]] LinkId& front() noexcept { return ids_[0]; }
  [[nodiscard]] LinkId& back() noexcept { return ids_[size_ - 1]; }
  [[nodiscard]] const LinkId* begin() const noexcept { return ids_.data(); }
  [[nodiscard]] const LinkId* end() const noexcept { return ids_.data() + size_; }

 private:
  std::array<LinkId, kCapacity> ids_{};
  std::uint8_t size_ = 0;
};

/// A route through the network: the ordered list of directed links.
/// An empty path means source and destination routers coincide.
struct Path {
  LinkList links;

  [[nodiscard]] std::size_t hops() const noexcept { return links.size(); }
};

/// Intra-group 2-hop ordering choice (row-then-column or column-then-row).
enum class IntraOrder : std::uint8_t { RowFirst, ColFirst };

/// Immutable dragonfly topology built from a DragonflyConfig.
class Topology {
 public:
  explicit Topology(const DragonflyConfig& cfg);

  [[nodiscard]] const DragonflyConfig& config() const noexcept { return cfg_; }

  // ---- Coordinate math -------------------------------------------------
  [[nodiscard]] GroupId group_of(RouterId r) const noexcept {
    return r / cfg_.routers_per_group();
  }
  [[nodiscard]] int local_index(RouterId r) const noexcept {
    return r % cfg_.routers_per_group();
  }
  [[nodiscard]] int row_of(RouterId r) const noexcept {
    return local_index(r) / cfg_.row_size;
  }
  [[nodiscard]] int col_of(RouterId r) const noexcept {
    return local_index(r) % cfg_.row_size;
  }
  [[nodiscard]] RouterId router_at(GroupId g, int row, int col) const noexcept {
    return RouterId(g * cfg_.routers_per_group() + row * cfg_.row_size + col);
  }
  [[nodiscard]] RouterId router_of_node(NodeId n) const noexcept {
    return RouterId(n / cfg_.nodes_per_router);
  }
  [[nodiscard]] NodeId first_node_of(RouterId r) const noexcept {
    return NodeId(r * cfg_.nodes_per_router);
  }

  // ---- Link identifiers ------------------------------------------------
  [[nodiscard]] int num_links() const noexcept { return int(links_.size()); }
  [[nodiscard]] const LinkInfo& link(LinkId id) const { return links_[std::size_t(id)]; }
  [[nodiscard]] const std::vector<LinkInfo>& links() const noexcept { return links_; }
  /// Capacity and latency of link `id`: the doubles its LinkInfo holds,
  /// taken from its class range, so a hot loop over path links does not
  /// load each link's 32-byte LinkInfo.
  [[nodiscard]] double link_capacity(LinkId id) const noexcept {
    return class_capacity_[class_of(id)];
  }
  [[nodiscard]] double link_latency(LinkId id) const noexcept {
    return class_latency_[class_of(id)];
  }
  /// Green, black and blue link ranges in LinkId order; together they
  /// cover [0, num_links()).
  [[nodiscard]] std::array<LinkClassRange, 3> link_classes() const noexcept {
    return {{{green_base_, black_base_, cfg_.green_bw},
             {black_base_, blue_base_, cfg_.black_bw},
             {blue_base_, num_links(), cfg_.blue_bw}}};
  }

  /// Directed green link within group g, row `row`, from column c1 to c2 (c1 != c2).
  [[nodiscard]] LinkId green_link(GroupId g, int row, int c1, int c2) const;
  /// Directed black link within group g, column `col`, from row r1 to r2 (r1 != r2).
  [[nodiscard]] LinkId black_link(GroupId g, int col, int r1, int r2) const;
  /// Directed blue link from group a to group b, parallel copy k.
  [[nodiscard]] LinkId blue_link(GroupId a, GroupId b, int k) const;

  /// Router inside group `g` that terminates copy `k` of the blue bundle
  /// toward peer group `peer` (the "gateway" for that copy).
  [[nodiscard]] RouterId gateway(GroupId g, GroupId peer, int k) const;

  /// Number of parallel blue links between any two groups.
  [[nodiscard]] int blue_copies() const noexcept { return blue_copies_; }

  /// Out-links of a router (used by the packet-level DES).
  [[nodiscard]] const std::vector<LinkId>& out_links(RouterId r) const {
    return out_links_[std::size_t(r)];
  }
  /// In-links of a router (used for per-router counter accounting).
  [[nodiscard]] const std::vector<LinkId>& in_links(RouterId r) const {
    return in_links_[std::size_t(r)];
  }

  // ---- Path construction ------------------------------------------------
  /// Minimal intra-group path (0, 1, or 2 hops) appended to `path`.
  void append_intra_path(GroupId g, int from_idx, int to_idx, IntraOrder order,
                         Path& path) const;

  /// Minimal path from src to dst using blue copy `k` and the given
  /// intra-group orders in the source and destination groups.
  [[nodiscard]] Path minimal_path(RouterId src, RouterId dst, int k,
                                  IntraOrder src_order = IntraOrder::RowFirst,
                                  IntraOrder dst_order = IntraOrder::RowFirst) const;

  /// Valiant (non-minimal) path: minimal to a router in `via_group`, then
  /// minimal to the destination. `via_group` must differ from both endpoints'
  /// groups; `k1`/`k2` pick the blue copies of the two legs.
  [[nodiscard]] Path valiant_path(RouterId src, RouterId dst, GroupId via_group, int k1,
                                  int k2, IntraOrder order = IntraOrder::RowFirst) const;

  /// Total path latency (sum of per-link latencies).
  [[nodiscard]] double path_latency(const Path& p) const;

  /// Validity check used by property tests: consecutive links connect, the
  /// path starts at src and ends at dst.
  [[nodiscard]] bool path_connects(const Path& p, RouterId src, RouterId dst) const;

  /// Human-readable summary (bench/fig02_topology).
  [[nodiscard]] std::string describe() const;

 private:
  void build_links();
  /// 0 green, 1 black, 2 blue.
  [[nodiscard]] std::size_t class_of(LinkId id) const noexcept {
    return std::size_t(id >= black_base_) + std::size_t(id >= blue_base_);
  }

  DragonflyConfig cfg_;
  int blue_copies_ = 0;
  int green_base_ = 0;  ///< LinkId offsets for each class
  int black_base_ = 0;
  int blue_base_ = 0;
  std::array<double, 3> class_capacity_{};  ///< green, black, blue
  std::array<double, 3> class_latency_{};
  std::vector<LinkInfo> links_;
  std::vector<std::vector<LinkId>> out_links_;
  std::vector<std::vector<LinkId>> in_links_;
};

}  // namespace dfv::net
