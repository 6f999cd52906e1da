#include "net/flow_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "exec/exec.hpp"

namespace dfv::net {

double stall_fraction(double utilization) noexcept {
  // Queueing-style growth: negligible below ~40% utilization, steep near
  // saturation. The value is "stall cycles per cycle" aggregated over the
  // VCs of a tile, so it may exceed 1; clamp to keep counters finite when
  // demand far exceeds capacity.
  const double u = std::min(utilization, 1.2);
  const double s = std::max(0.0, u - 0.15);
  return std::min(6.0, s * s / std::max(0.05, 1.02 - u));
}

FlowModel::FlowModel(const Topology& topo, FlowModelParams params)
    : topo_(&topo), params_(params), chooser_(topo, params.routing) {
  DFV_CHECK(params_.capacity_headroom > 0.0 && params_.capacity_headroom <= 1.0);
  DFV_CHECK(params_.min_residual_frac > 0.0 && params_.min_residual_frac < 1.0);
  DFV_CHECK(params_.max_chunks >= 1);
}

namespace {

int chunk_count(double bytes, const FlowModelParams& p) {
  if (bytes <= p.chunk_bytes) return 1;
  const double n = std::ceil(bytes / p.chunk_bytes);
  return int(std::min<double>(n, p.max_chunks));
}

/// Demands per routing wave. Within a wave, paths are chosen independently
/// against a frozen load snapshot; the snapshot is refreshed between waves
/// so adaptive routing still reacts to earlier demands. The wave structure
/// (and hence every result) depends only on the input order, never on the
/// thread count.
constexpr std::size_t kRoutingWave = 64;

/// Demands whose candidates are drawn in one parallel pass. Candidate
/// draws read no load, so a block may span waves; two blocks bound the
/// candidate scratch.
constexpr std::size_t kSampleBlock = 8 * kRoutingWave;

/// Doubles per task of the initial link-rate copy.
constexpr std::size_t kCopyGrain = 16384;

}  // namespace

template <typename Apply>
void FlowModel::route_waves(std::span<const Demand> demands, RoutingPolicy policy,
                            std::uint64_t seed, std::span<const double> initial_rate,
                            std::span<double> link_rate, Apply&& apply) const {
  DFV_CHECK(initial_rate.empty() || initial_rate.size() == link_rate.size());
  const std::size_t n = demands.size();
  const std::size_t chunks_max = std::size_t(params_.max_chunks);
  const std::size_t per = std::size_t(chooser_.max_candidates());
  // Decisions per half of the two-block candidate buffer.
  const std::size_t half = std::min(kSampleBlock, n) * chunks_max;
  if (cand_draws_.size() < 2 * half) {
    cand_draws_.resize(2 * half);
    cand_paths_.resize(2 * half * per);
  }
  const auto slots = [&](std::size_t k) {
    return std::span(cand_paths_).subspan(k * per, per);
  };
  // Chunk c of demand i in block b owns decision
  // k = (b % 2) * half + (i - b * kSampleBlock) * max_chunks + c.
  const auto decision = [&](std::size_t i) {
    const std::size_t b = i / kSampleBlock;
    return (b % 2) * half + (i - b * kSampleBlock) * chunks_max;
  };
  const auto draw = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const Demand& d = demands[i];
      if (d.bytes <= 0.0 || d.src == d.dst) continue;
      Rng dr(exec::substream_seed(seed, i));
      const std::size_t k = decision(i);
      for (int c = 0, nc = chunk_count(d.bytes, params_); c < nc; ++c)
        cand_draws_[k + std::size_t(c)] =
            chooser_.sample(d.src, d.dst, policy, dr, slots(k + std::size_t(c)));
    }
  };
  // Serial: each wave picks against the rates as they stand before it,
  // then is applied in demand order.
  std::vector<Path> wave_paths(std::min(kRoutingWave, n) * chunks_max);
  const auto pick_apply = [&](std::size_t block_lo, std::size_t block_hi) {
    for (std::size_t wave_lo = block_lo; wave_lo < block_hi; wave_lo += kRoutingWave) {
      const std::size_t wave_hi = std::min(wave_lo + kRoutingWave, block_hi);
      for (std::size_t i = wave_lo; i < wave_hi; ++i) {
        const Demand& d = demands[i];
        if (d.bytes <= 0.0 || d.src == d.dst) continue;
        const std::size_t k = decision(i);
        for (int c = 0, nc = chunk_count(d.bytes, params_); c < nc; ++c)
          wave_paths[(i - wave_lo) * chunks_max + std::size_t(c)] = chooser_.pick(
              policy, slots(k + std::size_t(c)), cand_draws_[k + std::size_t(c)], link_rate);
      }
      for (std::size_t i = wave_lo; i < wave_hi; ++i)
        apply(i, &wave_paths[(i - wave_lo) * chunks_max]);
    }
  };

  // Region b: task 0 picks and applies block b - 1 (none in region 0); the
  // next tasks draw block b, one wave each (none past the last block);
  // region 0's last tasks copy the initial rates. The draws and the copy
  // write what no concurrent task reads, and the picks of block b - 1 read
  // the rates only after region b - 1 has finished, so no result depends
  // on which lane runs which task. The last region is the lone pick/apply
  // task, which the pool runs inline; so is a region whose draws are one
  // wave's, since that draw costs less than moving the picks to a worker.
  const std::size_t blocks = exec::num_chunks(n, kSampleBlock);
  const std::size_t copies = exec::num_chunks(initial_rate.size(), kCopyGrain);
  for (std::size_t b = 0; b <= blocks; ++b) {
    const std::size_t lo = std::min(b * kSampleBlock, n);
    const std::size_t hi = std::min(lo + kSampleBlock, n);
    const std::size_t serial = b > 0 ? 1 : 0;
    const std::size_t draws = exec::num_chunks(hi - lo, kRoutingWave);
    const std::size_t tasks = serial + draws + (b == 0 ? copies : 0);
    const auto task = [&](std::size_t t) {
      if (t < serial) {
        pick_apply((b - 1) * kSampleBlock, lo);
      } else if (t < serial + draws) {
        const std::size_t w = lo + (t - serial) * kRoutingWave;
        draw(w, std::min(w + kRoutingWave, hi));
      } else {
        const std::size_t e = (t - serial - draws) * kCopyGrain;
        std::copy_n(initial_rate.data() + e, std::min(kCopyGrain, initial_rate.size() - e),
                    link_rate.data() + e);
      }
    };
    const std::size_t grain = serial == 1 && draws == 1 ? 2 : 1;
    exec::parallel_for(0, tasks, grain, [&](std::size_t t_lo, std::size_t t_hi) {
      for (std::size_t t = t_lo; t < t_hi; ++t) task(t);
    });
  }
}

void FlowModel::route_background(std::span<const Demand> demands, RoutingPolicy policy,
                                 double dt, Rng& rng, RateLoads& out,
                                 std::vector<LinkId>* touched) const {
  DFV_CHECK(dt > 0.0);
  if (out.link_rate.size() != std::size_t(topo_->num_links())) out.resize(*topo_);
  if (demands.empty()) return;

  // One draw from the caller's stream; each demand routes from its own
  // substream, so it draws the same candidates however the sampling pass
  // is scheduled.
  route_waves(demands, policy, rng(), {}, out.link_rate, [&](std::size_t i, const Path* paths) {
    const Demand& d = demands[i];
    if (d.bytes <= 0.0) return;
    if (d.src != d.dst) {
      const int chunks = chunk_count(d.bytes, params_);
      const double chunk_rate = d.bytes / dt / double(chunks);
      for (int c = 0; c < chunks; ++c)
        for (LinkId id : paths[c].links) {
          double& rate = out.link_rate[std::size_t(id)];
          if (touched != nullptr && rate == 0.0) touched->push_back(id);
          rate += chunk_rate;
        }
    }
    // Same-router traffic only touches the processor tiles.
    out.inject_rate[std::size_t(d.src)] += d.bytes / dt;
    out.eject_rate[std::size_t(d.dst)] += d.bytes / dt;
  });
}

TransferResult FlowModel::transfer(std::span<const Demand> messages, RoutingPolicy policy,
                                   const RateLoads& bg, Rng& rng, ByteLoads* ours) const {
  TransferResult result;
  if (messages.empty()) return result;

  const std::size_t L = std::size_t(topo_->num_links());
  const std::size_t R = std::size_t(topo_->config().num_routers());
  DFV_CHECK_MSG(bg.link_rate.size() == L, "background RateLoads not sized to topology");

  // Effective load seen by the adaptive path chooser: background plus our
  // own already-routed chunks (estimated as if transferred over ~100 ms).
  // A reused scratch buffer avoids reallocating ~1 MB per phase;
  // route_waves copies the background into it alongside the first draws.
  scratch_rate_.resize(L);
  std::vector<double>& est_rate = scratch_rate_;
  constexpr double kSelfRateDt = 0.1;

  // Flow table: a message may be split into several chunk-flows; message
  // i owns flows [flow_begin[i], flow_begin[i + 1]), in message order.
  // The decomposition is fixed before any routing, so both the wave
  // structure and the per-message RNG substreams are functions of the
  // input alone.
  struct Flow {
    double bytes = 0.0;
    double rate = 0.0;
  };
  std::vector<std::uint32_t> flow_begin(messages.size() + 1, 0);
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const Demand& d = messages[i];
    const int chunks = d.bytes <= 0.0 ? 0 : d.src == d.dst ? 1 : chunk_count(d.bytes, params_);
    flow_begin[i + 1] = flow_begin[i] + std::uint32_t(chunks);
  }
  std::vector<Flow> flows(flow_begin[messages.size()]);
  result.messages.resize(messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const Demand& d = messages[i];
    result.messages[i].demand = d;
    if (d.bytes <= 0.0) continue;
    const double chunk_bytes = d.bytes / double(flow_begin[i + 1] - flow_begin[i]);
    for (std::uint32_t fi = flow_begin[i]; fi < flow_begin[i + 1]; ++fi)
      flows[fi].bytes = chunk_bytes;
    if (ours != nullptr) {
      ours->inject_bytes[std::size_t(d.src)] += d.bytes;
      ours->eject_bytes[std::size_t(d.dst)] += d.bytes;
    }
  }

  // Dense-index the touched resources in first-touch (flow) order via an
  // epoch-stamped lookup table: no O(refs log refs) sort, no O(L+2R) clear
  // per call. Resource ids are links, then L+r (inject), L+R+r (eject);
  // `refs` lists each flow's resources as dense ids, flow by flow.
  if (res_stamp_.size() != L + 2 * R) {
    res_stamp_.assign(L + 2 * R, 0);
    res_dense_.assign(L + 2 * R, 0);
    res_epoch_ = 0;
  }
  if (++res_epoch_ == 0) {  // epoch wrapped: invalidate all stamps
    std::fill(res_stamp_.begin(), res_stamp_.end(), 0u);
    res_epoch_ = 1;
  }
  std::vector<std::uint32_t> used;  // dense id -> raw resource id
  std::vector<std::uint32_t> refs;
  std::vector<std::uint32_t> flow_off(flows.size() + 1, 0);
  refs.reserve(flows.size() * 8);
  const auto dense = [&](std::size_t r) {
    if (res_stamp_[r] != res_epoch_) {
      res_stamp_[r] = res_epoch_;
      res_dense_[r] = std::uint32_t(used.size());
      used.push_back(std::uint32_t(r));
    }
    return res_dense_[r];
  };

  // Two-pass routing (route_waves). One draw seeds per-message
  // substreams; each message's chunks draw their candidates in sequence
  // from its own stream, on the pool, a block of waves at a time. Draws
  // read no load, so they are the same for any thread count. Then, wave by
  // wave, every chunk picks its path against the load snapshot frozen at
  // the wave boundary, and the wave's self-load (est_rate), byte
  // accounting and dense resource lists are applied serially in message
  // order before the next wave picks.
  // The flow table keeps no path: the solve reads only the dense refs, and
  // a message reports its first chunk's path.
  route_waves(messages, policy, rng(), bg.link_rate, est_rate,
              [&](std::size_t i, const Path* paths) {
    const Demand& d = messages[i];
    const bool routed = d.src != d.dst;
    for (std::uint32_t fi = flow_begin[i]; fi < flow_begin[i + 1]; ++fi) {
      const double bytes = flows[fi].bytes;
      flow_off[fi] = std::uint32_t(refs.size());
      if (routed)
        for (LinkId id : paths[fi - flow_begin[i]].links) {
          est_rate[std::size_t(id)] += bytes / kSelfRateDt;
          if (ours != nullptr) ours->add_link(id, bytes);
          refs.push_back(dense(std::size_t(id)));
        }
      refs.push_back(dense(L + std::size_t(d.src)));
      refs.push_back(dense(L + R + std::size_t(d.dst)));
    }
    if (routed && flow_begin[i] != flow_begin[i + 1]) result.messages[i].path = paths[0];
  });
  flow_off[flows.size()] = std::uint32_t(refs.size());
  const std::size_t U = used.size();

  // Residual capacities after background traffic, floored so saturated
  // resources drain slowly instead of deadlocking the solve.
  std::vector<double> residual(U, 0.0);
  std::vector<int> nflows(U, 0);
  const double ep_bw = topo_->config().endpoint_bw;
  for (std::uint32_t id : refs) ++nflows[id];
  for (std::size_t u = 0; u < U; ++u) {
    const std::size_t e = used[u];
    double cap, bg_rate;
    if (e < L) {
      cap = topo_->link_capacity(LinkId(e));
      bg_rate = bg.link_rate[e];
    } else if (e < L + R) {
      cap = ep_bw;
      bg_rate = bg.inject_rate[e - L];
    } else {
      cap = ep_bw;
      bg_rate = bg.eject_rate[e - L - R];
    }
    residual[u] = std::max(cap * params_.capacity_headroom - bg_rate,
                           cap * params_.min_residual_frac);
  }

  // Inverted adjacency (resource -> flows crossing it) by counting sort;
  // per-resource flow lists come out in ascending flow order.
  std::vector<std::uint32_t> radj_off(U + 1, 0);
  for (std::uint32_t id : refs) ++radj_off[id + 1];
  for (std::size_t u = 0; u < U; ++u) radj_off[u + 1] += radj_off[u];
  std::vector<std::uint32_t> radj_items(refs.size());
  {
    std::vector<std::uint32_t> cursor(radj_off.begin(), radj_off.end() - 1);
    for (std::size_t fi = 0; fi < flows.size(); ++fi)
      for (std::uint32_t k = flow_off[fi]; k < flow_off[fi + 1]; ++k)
        radj_items[cursor[refs[k]]++] = std::uint32_t(fi);
  }

  // Progressive-filling max-min fairness over a lazy min-heap of inline
  // (share, dense id) entries, one per resource, with share = residual /
  // nflows as of the entry's last keying. The top is frozen when its key
  // is current; an out-of-date top is re-keyed in place, and a top whose
  // last flow froze elsewhere is dropped. Dead entries below the top never
  // change which live entry is least, so each step acts on the least live
  // (share, id), as an index-tracked heap that erases resources eagerly
  // would. Re-keying lazily, at the top, rather than on every residual
  // change is what fixes the freeze order: an eager re-key can round a
  // tied share a hair below the level just frozen and so reorder freezes
  // between tied resources. Each pop freezes a flow, re-keys after a
  // change or drops a dead entry, and every unfrozen flow keeps its inject
  // and eject resources live, so the loop ends with every flow frozen.
  struct Entry {
    double share;
    std::uint32_t u;
  };
  const auto before = [](const Entry& a, const Entry& b) {
    return a.share < b.share || (a.share == b.share && a.u < b.u);
  };
  std::vector<Entry> heap(U);
  const auto sift_down = [&](std::size_t pos) {
    const Entry e = heap[pos];
    const std::size_t n = heap.size();
    for (std::size_t c = 2 * pos + 1; c < n; pos = c, c = 2 * pos + 1) {
      if (c + 1 < n && before(heap[c + 1], heap[c])) ++c;
      if (!before(heap[c], e)) break;
      heap[pos] = heap[c];
    }
    heap[pos] = e;
  };
  const auto pop = [&] {
    heap[0] = heap.back();
    heap.pop_back();
    if (!heap.empty()) sift_down(0);
  };
  for (std::uint32_t u = 0; u < U; ++u) heap[u] = {residual[u] / double(nflows[u]), u};
  for (std::size_t pos = U / 2; pos-- > 0;) sift_down(pos);

  std::vector<char> done(flows.size(), 0);
  std::size_t remaining = flows.size();
  while (remaining > 0) {
    DFV_CHECK_MSG(!heap.empty(), "max-min solve left flows without a rate");
    const std::uint32_t u = heap[0].u;
    if (nflows[u] == 0) {
      pop();
      continue;
    }
    const double share = residual[u] / double(nflows[u]);
    if (share != heap[0].share) {
      heap[0].share = share;
      sift_down(0);
      continue;
    }
    DFV_CHECK(std::isfinite(share));
    pop();
    for (std::uint32_t k = radj_off[u]; k < radj_off[u + 1]; ++k) {
      const std::uint32_t fi = radj_items[k];
      if (done[fi]) continue;
      flows[fi].rate = share;
      done[fi] = 1;
      --remaining;
      for (std::uint32_t kk = flow_off[fi]; kk < flow_off[fi + 1]; ++kk) {
        const std::uint32_t r = refs[kk];
        residual[r] -= share;
        --nflows[r];
      }
    }
  }

  // Message completion time: max over its chunk flows, with the path
  // latency of the message's first chunk.
  for (std::size_t i = 0; i < messages.size(); ++i) {
    RoutedMessage& m = result.messages[i];
    if (flow_begin[i] == flow_begin[i + 1]) continue;
    const double latency =
        m.path.links.empty() ? 2.0e-7 : topo_->path_latency(m.path) + 2.0e-7;
    for (std::uint32_t fi = flow_begin[i]; fi < flow_begin[i + 1]; ++fi) {
      const Flow& f = flows[fi];
      const double t = latency + f.bytes / std::max(f.rate, 1.0);
      m.time = std::max(m.time, t);
      m.rate = m.rate == 0.0 ? f.rate : std::min(m.rate, f.rate);
    }
  }
  for (const RoutedMessage& m : result.messages)
    result.makespan = std::max(result.makespan, m.time);
  return result;
}

double FlowModel::congestion_factor(std::span<const RouterId> job_routers,
                                    const RateLoads& bg) const {
  if (job_routers.empty() || bg.link_rate.empty()) return 1.0;
  double util_sum = 0.0, stall_sum = 0.0, max_stall = 0.0;
  std::size_t n = 0;
  for (RouterId r : job_routers) {
    for (LinkId id : topo_->out_links(r)) {
      const double u = bg.link_rate[std::size_t(id)] / topo_->link_capacity(id);
      const double sf = stall_fraction(u);
      util_sum += std::min(u, 1.5);
      stall_sum += sf;
      max_stall = std::max(max_stall, sf);
      ++n;
    }
  }
  if (n == 0) return 1.0;
  const double mean_util = util_sum / double(n);
  const double mean_stall = stall_sum / double(n);
  // Mean terms capture diffuse congestion; the max term captures one hot
  // link on the job's routers (adaptive routing dilutes but does not hide
  // it, §II-A).
  return 1.0 + 1.0 * mean_util + 2.0 * mean_stall + 0.08 * max_stall;
}

}  // namespace dfv::net
