#include "spans.hh"

#include <cstdio>

namespace perfbench
{

int
Spans::begin(const char *name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = nowNs();
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
Spans::end(int id)
{
    std::int64_t t = nowNs();
    // Spans nest; one left open by an exception closes with its parent.
    while (!open_.empty()) {
        int top = open_.back();
        open_.pop_back();
        spans_[static_cast<std::size_t>(top)].end_ns = t;
        if (top == id)
            break;
    }
}

void
Spans::addInner(int id, const char *name, double ns)
{
    spans_[static_cast<std::size_t>(id)].inner.emplace_back(name, ns);
}

std::int64_t
Spans::durationNs(int id) const
{
    const Span &s = spans_[static_cast<std::size_t>(id)];
    return s.end_ns - s.start_ns;
}

std::map<std::string, double>
Spans::selfSeconds(std::size_t from) const
{
    std::vector<double> covered(spans_.size(), 0.0);
    for (std::size_t i = from; i < spans_.size(); ++i) {
        int p = spans_[i].parent;
        if (p >= static_cast<int>(from))
            covered[static_cast<std::size_t>(p)] +=
                static_cast<double>(durationNs(static_cast<int>(i)));
    }
    std::map<std::string, double> self;
    for (std::size_t i = from; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        double own = static_cast<double>(s.end_ns - s.start_ns) -
                     covered[i];
        for (const auto &[name, ns] : s.inner) {
            own -= ns;
            self[name] += ns * 1e-9;
        }
        self[s.name] += own * 1e-9;
    }
    return self;
}

bool
Spans::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d",
                     i ? "," : "", s.name,
                     static_cast<double>(s.start_ns - t0) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                     s.parent);
        for (const auto &[name, ns] : s.inner)
            std::fprintf(f, ",\"%s_us\":%.3f", name, ns / 1e3);
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
