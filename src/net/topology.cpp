#include "net/topology.hpp"

#include <sstream>

#include "common/check.hpp"

namespace dfv::net {

const char* to_string(LinkType t) noexcept {
  switch (t) {
    case LinkType::Green: return "green";
    case LinkType::Black: return "black";
    case LinkType::Blue: return "blue";
  }
  return "?";
}

void DragonflyConfig::validate() const {
  DFV_CHECK_MSG(groups >= 1, "dragonfly needs at least one group");
  DFV_CHECK_MSG(row_size >= 2 && col_size >= 2, "group grid must be at least 2x2");
  DFV_CHECK_MSG(nodes_per_router >= 1, "each router needs at least one node");
  DFV_CHECK_MSG(groups == 1 || links_per_group_pair() >= 1,
                "not enough global ports to connect every group pair: "
                    << routers_per_group() * global_ports_per_router << " endpoints for "
                    << groups - 1 << " peers");
  DFV_CHECK(green_bw > 0 && black_bw > 0 && blue_bw > 0 && endpoint_bw > 0);
  DFV_CHECK(flit_bytes > 0 && clock_hz > 0);
}

Topology::Topology(const DragonflyConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  blue_copies_ = cfg_.links_per_group_pair();
  build_links();
  class_capacity_ = {cfg_.green_bw, cfg_.black_bw, cfg_.blue_bw};
  class_latency_ = {cfg_.hop_latency, cfg_.hop_latency, cfg_.global_latency};
}

void Topology::build_links() {
  const int G = cfg_.groups;
  const int R = cfg_.row_size;
  const int C = cfg_.col_size;
  const int rpg = cfg_.routers_per_group();

  const int green_per_group = C * R * (R - 1);
  const int black_per_group = R * C * (C - 1);
  green_base_ = 0;
  black_base_ = green_per_group * G;
  blue_base_ = black_base_ + black_per_group * G;
  const int blue_count = G * (G - 1) * blue_copies_;

  links_.resize(std::size_t(blue_base_ + blue_count));
  out_links_.assign(std::size_t(cfg_.num_routers()), {});
  in_links_.assign(std::size_t(cfg_.num_routers()), {});

  for (GroupId g = 0; g < G; ++g) {
    for (int row = 0; row < C; ++row)
      for (int c1 = 0; c1 < R; ++c1)
        for (int c2 = 0; c2 < R; ++c2) {
          if (c1 == c2) continue;
          const LinkId id = green_link(g, row, c1, c2);
          LinkInfo& li = links_[std::size_t(id)];
          li.from = router_at(g, row, c1);
          li.to = router_at(g, row, c2);
          li.type = LinkType::Green;
          li.capacity = cfg_.green_bw;
          li.latency = cfg_.hop_latency;
          out_links_[std::size_t(li.from)].push_back(id);
        }
    for (int col = 0; col < R; ++col)
      for (int r1 = 0; r1 < C; ++r1)
        for (int r2 = 0; r2 < C; ++r2) {
          if (r1 == r2) continue;
          const LinkId id = black_link(g, col, r1, r2);
          LinkInfo& li = links_[std::size_t(id)];
          li.from = router_at(g, r1, col);
          li.to = router_at(g, r2, col);
          li.type = LinkType::Black;
          li.capacity = cfg_.black_bw;
          li.latency = cfg_.hop_latency;
          out_links_[std::size_t(li.from)].push_back(id);
        }
  }

  for (GroupId a = 0; a < G; ++a)
    for (GroupId b = 0; b < G; ++b) {
      if (a == b) continue;
      for (int k = 0; k < blue_copies_; ++k) {
        const LinkId id = blue_link(a, b, k);
        LinkInfo& li = links_[std::size_t(id)];
        li.from = gateway(a, b, k);
        li.to = gateway(b, a, k);
        li.type = LinkType::Blue;
        li.capacity = cfg_.blue_bw;
        li.latency = cfg_.global_latency;
        out_links_[std::size_t(li.from)].push_back(id);
      }
    }

  for (LinkId id = 0; id < LinkId(links_.size()); ++id)
    in_links_[std::size_t(links_[std::size_t(id)].to)].push_back(id);
  (void)rpg;
}

LinkId Topology::green_link(GroupId g, int row, int c1, int c2) const {
  DFV_CHECK(c1 != c2);
  const int R = cfg_.row_size;
  const int per_group = cfg_.col_size * R * (R - 1);
  const int within = row * R * (R - 1) + c1 * (R - 1) + (c2 < c1 ? c2 : c2 - 1);
  return LinkId(green_base_ + g * per_group + within);
}

LinkId Topology::black_link(GroupId g, int col, int r1, int r2) const {
  DFV_CHECK(r1 != r2);
  const int C = cfg_.col_size;
  const int per_group = cfg_.row_size * C * (C - 1);
  const int within = col * C * (C - 1) + r1 * (C - 1) + (r2 < r1 ? r2 : r2 - 1);
  return LinkId(black_base_ + g * per_group + within);
}

LinkId Topology::blue_link(GroupId a, GroupId b, int k) const {
  DFV_CHECK(a != b);
  DFV_CHECK(k >= 0 && k < blue_copies_);
  const int pair_rank = a * (cfg_.groups - 1) + (b < a ? b : b - 1);
  return LinkId(blue_base_ + pair_rank * blue_copies_ + k);
}

RouterId Topology::gateway(GroupId g, GroupId peer, int k) const {
  DFV_CHECK(g != peer);
  DFV_CHECK(k >= 0 && k < blue_copies_);
  // Round-robin the (peer, copy) endpoints over the group's routers; with
  // K = floor(rpg * ports / (G-1)) this never exceeds the per-router port
  // budget and spreads gateways across rows and columns.
  const int peer_rank = peer < g ? peer : peer - 1;
  const int idx = peer_rank * blue_copies_ + k;
  return RouterId(g * cfg_.routers_per_group() + idx % cfg_.routers_per_group());
}

void Topology::append_intra_path(GroupId g, int from_idx, int to_idx, IntraOrder order,
                                 Path& path) const {
  if (from_idx == to_idx) return;
  const int R = cfg_.row_size;
  const int fr = from_idx / R, fc = from_idx % R;
  const int tr = to_idx / R, tc = to_idx % R;
  if (fr == tr) {
    path.links.push_back(green_link(g, fr, fc, tc));
    return;
  }
  if (fc == tc) {
    path.links.push_back(black_link(g, fc, fr, tr));
    return;
  }
  if (order == IntraOrder::RowFirst) {
    path.links.push_back(green_link(g, fr, fc, tc));
    path.links.push_back(black_link(g, tc, fr, tr));
  } else {
    path.links.push_back(black_link(g, fc, fr, tr));
    path.links.push_back(green_link(g, tr, fc, tc));
  }
}

Path Topology::minimal_path(RouterId src, RouterId dst, int k, IntraOrder src_order,
                            IntraOrder dst_order) const {
  Path p;
  if (src == dst) return p;
  const GroupId ga = group_of(src), gb = group_of(dst);
  if (ga == gb) {
    append_intra_path(ga, local_index(src), local_index(dst), src_order, p);
    return p;
  }
  const RouterId gwa = gateway(ga, gb, k);
  const RouterId gwb = gateway(gb, ga, k);
  append_intra_path(ga, local_index(src), local_index(gwa), src_order, p);
  p.links.push_back(blue_link(ga, gb, k));
  append_intra_path(gb, local_index(gwb), local_index(dst), dst_order, p);
  return p;
}

Path Topology::valiant_path(RouterId src, RouterId dst, GroupId via_group, int k1, int k2,
                            IntraOrder order) const {
  const GroupId ga = group_of(src), gb = group_of(dst);
  DFV_CHECK_MSG(via_group != ga && via_group != gb,
                "valiant intermediate group must differ from endpoint groups");
  Path p;
  // Leg 1: minimal to the intermediate group's gateway router.
  const RouterId gwa = gateway(ga, via_group, k1);
  append_intra_path(ga, local_index(src), local_index(gwa), order, p);
  p.links.push_back(blue_link(ga, via_group, k1));
  const RouterId mid = gateway(via_group, ga, k1);
  // Leg 2: minimal from the intermediate router to the destination.
  const RouterId gwv = gateway(via_group, gb, k2);
  append_intra_path(via_group, local_index(mid), local_index(gwv), order, p);
  p.links.push_back(blue_link(via_group, gb, k2));
  const RouterId gwb = gateway(gb, via_group, k2);
  append_intra_path(gb, local_index(gwb), local_index(dst), order, p);
  return p;
}

double Topology::path_latency(const Path& p) const {
  double t = 0.0;
  for (LinkId id : p.links) t += link_latency(id);
  return t;
}

bool Topology::path_connects(const Path& p, RouterId src, RouterId dst) const {
  RouterId cur = src;
  for (LinkId id : p.links) {
    if (id < 0 || id >= num_links()) return false;
    const LinkInfo& li = link(id);
    if (li.from != cur) return false;
    cur = li.to;
  }
  return cur == dst;
}

std::string Topology::describe() const {
  std::ostringstream os;
  int green = 0, black = 0, blue = 0;
  for (const auto& li : links_) {
    switch (li.type) {
      case LinkType::Green: ++green; break;
      case LinkType::Black: ++black; break;
      case LinkType::Blue: ++blue; break;
    }
  }
  os << "dragonfly: " << cfg_.groups << " groups of " << cfg_.col_size << "x"
     << cfg_.row_size << " routers (" << cfg_.num_routers() << " routers, "
     << cfg_.num_nodes() << " nodes)\n"
     << "  directed links: " << green << " green (row all-to-all), " << black
     << " black (column all-to-all), " << blue << " blue (" << blue_copies_
     << " copies per group pair)\n"
     << "  per-router ports: " << cfg_.row_size - 1 << " green, " << cfg_.col_size - 1
     << " black, <=" << cfg_.global_ports_per_router << " blue, "
     << cfg_.nodes_per_router << " nodes\n"
     << "  minimal diameter: <=5 router hops (2 intra + blue + 2 intra)\n";
  return os.str();
}

}  // namespace dfv::net
