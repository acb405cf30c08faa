// A distributed node: current observation plus the server-assigned filter.
//
// Node state lives in SimContext's structure-of-arrays store (one array each
// for values, filter lower bounds, filter upper bounds and violation bits),
// so whole-fleet operations — an observation step, a broadcast filter rule —
// are single vector passes. `Node` is a by-value view of one node's slot and
// `NodeRange` the random-access range of those views that SimContext::nodes()
// and AdversaryView hand to predicates, filter rules, generators and the
// strict validator.
//
// Nodes evaluate their own filter locally (free, node-side computation);
// everything the *server* learns about a node's value must travel through
// the accounted primitives in SimContext.
#pragma once

#include <compare>
#include <cstddef>
#include <iterator>
#include <ranges>

#include "model/filter.hpp"
#include "model/types.hpp"

namespace topkmon {

class Node {
 public:
  Node(NodeId id, Value value, Filter filter) : id_(id), value_(value), filter_(filter) {}

  NodeId id() const { return id_; }
  Value value() const { return value_; }
  Filter filter() const { return filter_; }

  /// Node-side check of the own filter.
  Violation violation() const { return filter_.check(value_); }
  bool violating() const { return violation() != Violation::kNone; }

 private:
  NodeId id_;
  Value value_;
  Filter filter_;
};

/// Node views over n parallel arrays: values[i], [lo[i], hi[i]].
class NodeRange {
  /// The three array bases; a view of slot i reads one entry of each.
  struct Arrays {
    const Value* values = nullptr;
    const double* lo = nullptr;
    const double* hi = nullptr;

    Node at(std::size_t i) const {
      return Node(static_cast<NodeId>(i), values[i], Filter{lo[i], hi[i]});
    }
  };

 public:
  class iterator {
   public:
    using iterator_concept = std::random_access_iterator_tag;
    using value_type = Node;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(Arrays arrays, std::size_t i) : arrays_(arrays), i_(i) {}

    Node operator*() const { return arrays_.at(i_); }
    Node operator[](difference_type d) const { return arrays_.at(i_ + d); }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      const iterator old = *this;
      ++i_;
      return old;
    }
    iterator& operator--() {
      --i_;
      return *this;
    }
    iterator operator--(int) {
      const iterator old = *this;
      --i_;
      return old;
    }
    iterator& operator+=(difference_type d) {
      i_ += d;
      return *this;
    }
    iterator& operator-=(difference_type d) {
      i_ -= d;
      return *this;
    }
    friend iterator operator+(iterator it, difference_type d) { return it += d; }
    friend iterator operator+(difference_type d, iterator it) { return it += d; }
    friend iterator operator-(iterator it, difference_type d) { return it -= d; }
    friend difference_type operator-(iterator a, iterator b) {
      return static_cast<difference_type>(a.i_) - static_cast<difference_type>(b.i_);
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }
    auto operator<=>(const iterator& o) const { return i_ <=> o.i_; }

   private:
    Arrays arrays_;
    std::size_t i_ = 0;
  };

  NodeRange() = default;
  NodeRange(const Value* values, const double* lo, const double* hi, std::size_t n)
      : arrays_{values, lo, hi}, n_(n) {}

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  Node operator[](std::size_t i) const { return arrays_.at(i); }
  iterator begin() const { return {arrays_, 0}; }
  iterator end() const { return {arrays_, n_}; }

 private:
  Arrays arrays_;
  std::size_t n_ = 0;
};

static_assert(std::ranges::random_access_range<NodeRange>);

}  // namespace topkmon
