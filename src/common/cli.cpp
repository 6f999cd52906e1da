#include "common/cli.hpp"

#include <algorithm>
#include <iostream>
#include <sstream>
#include <utility>

#include "common/check.hpp"

namespace dfv::cli {

namespace {

const char* type_label(ArgType t) {
  switch (t) {
    case ArgType::Flag: return "";
    case ArgType::Int: return "N";
    case ArgType::Double: return "X";
    case ArgType::String: return "S";
  }
  return "S";
}

}  // namespace

ParsedArgs::ParsedArgs(const std::vector<ArgSpec>* specs,
                       std::map<std::string, std::string> kv)
    : specs_(specs), kv_(std::move(kv)) {}

const ArgSpec& ParsedArgs::spec(const std::string& name) const {
  for (const ArgSpec& s : *specs_)
    if (s.name == name) return s;
  DFV_CHECK_MSG(false, "argument --" << name << " is not in this command's spec table");
  return specs_->front();  // unreachable
}

bool ParsedArgs::given(const std::string& name) const {
  (void)spec(name);  // validate the lookup even when absent
  return kv_.count(name) > 0;
}

bool ParsedArgs::flag(const std::string& name) const {
  DFV_CHECK_MSG(spec(name).type == ArgType::Flag, "--" << name << " is not a flag");
  return kv_.count(name) > 0;
}

std::string ParsedArgs::get(const std::string& name) const {
  const ArgSpec& s = spec(name);
  const auto it = kv_.find(name);
  return it == kv_.end() ? s.dflt : it->second;
}

int ParsedArgs::get_int(const std::string& name) const {
  DFV_CHECK_MSG(spec(name).type == ArgType::Int, "--" << name << " is not an int");
  return std::stoi(get(name));
}

double ParsedArgs::get_double(const std::string& name) const {
  DFV_CHECK_MSG(spec(name).type == ArgType::Double, "--" << name << " is not a double");
  return std::stod(get(name));
}

App::App(std::string name, std::string tagline)
    : name_(std::move(name)), tagline_(std::move(tagline)) {}

void App::command(std::string name, std::string summary, std::vector<ArgSpec> args,
                  std::function<int(const ParsedArgs&)> run) {
  commands_.push_back(
      {std::move(name), std::move(summary), std::move(args), std::move(run)});
}

void App::common_arg(ArgSpec spec) { common_args_.push_back(std::move(spec)); }

const Command* App::find(const std::string& name) const {
  for (const Command& c : commands_)
    if (c.name == name) return &c;
  return nullptr;
}

std::string App::usage() const {
  std::ostringstream os;
  os << name_ << " — " << tagline_ << "\n\nusage: " << name_
     << " <command> [--key value | --key=value ...]\n\ncommands:\n";
  std::size_t width = 0;
  for (const Command& c : commands_) width = std::max(width, c.name.size());
  for (const Command& c : commands_) {
    os << "  " << c.name;
    os.write("                    ", std::streamsize(width - c.name.size() + 2));
    os << c.summary << "\n";
  }
  os << "\n`" << name_ << " help <command>` or `" << name_
     << " <command> --help` shows that command's arguments.\n";
  return os.str();
}

std::string App::label(const Command& cmd) const {
  return cmd.name.empty() ? name_ : name_ + " " + cmd.name;
}

std::string App::usage(const Command& cmd) const {
  std::ostringstream os;
  os << "usage: " << label(cmd) << " [options]\n  " << cmd.summary
     << "\n\noptions:\n";
  std::vector<ArgSpec> all = cmd.args;
  all.insert(all.end(), common_args_.begin(), common_args_.end());
  std::size_t width = 0;
  std::vector<std::string> lhs;
  for (const ArgSpec& a : all) {
    std::string l = "--" + a.name;
    if (a.type != ArgType::Flag) l += std::string(" ") + type_label(a.type);
    width = std::max(width, l.size());
    lhs.push_back(std::move(l));
  }
  width = std::max(width, std::string("--help").size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    os << "  " << lhs[i];
    os.write("                                ", std::streamsize(width - lhs[i].size() + 2));
    os << all[i].help;
    if (all[i].type != ArgType::Flag && !all[i].dflt.empty())
      os << " [default: " << all[i].dflt << "]";
    os << "\n";
  }
  os << "  --help";
  os.write("                                ", std::streamsize(width - 6 + 2));
  os << "show this help\n";
  return os.str();
}

int App::run(int argc, char** argv) const {
  // A tool whose only command is unnamed takes that command's flags
  // directly: `tool --key value`.
  if (commands_.size() == 1 && commands_.front().name.empty())
    return run_command(commands_.front(), argc, argv, 1);
  if (argc < 2) {
    std::cout << usage();
    return 1;
  }
  std::string cmd_name = argv[1];
  if (cmd_name == "--help" || cmd_name == "-h" || cmd_name == "help") {
    if (cmd_name == "help" && argc >= 3) {
      const Command* c = find(argv[2]);
      if (c == nullptr) {
        std::cerr << name_ << ": unknown command '" << argv[2] << "'\n\n" << usage();
        return 1;
      }
      std::cout << usage(*c);
      return 0;
    }
    std::cout << usage();
    return 0;
  }

  const Command* cmd = find(cmd_name);
  if (cmd == nullptr) {
    std::cerr << name_ << ": unknown command '" << cmd_name << "'\n\n" << usage();
    return 1;
  }
  return run_command(*cmd, argc, argv, 2);
}

int App::run_command(const Command& cmd, int argc, char** argv, int from) const {
  std::vector<ArgSpec> specs = cmd.args;
  specs.insert(specs.end(), common_args_.begin(), common_args_.end());
  const auto find_spec = [&](const std::string& key) -> const ArgSpec* {
    for (const ArgSpec& s : specs)
      if (s.name == key) return &s;
    return nullptr;
  };

  std::map<std::string, std::string> kv;
  for (int i = from; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      std::cout << usage(cmd);
      return 0;
    }
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      std::cerr << label(cmd) << ": expected --key, got '" << token
                << "'\n\n"
                << usage(cmd);
      return 2;
    }
    std::string key = token.substr(2);
    std::string value;
    bool have_value = false;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
      have_value = true;
    }
    const ArgSpec* spec = find_spec(key);
    if (spec == nullptr) {
      std::cerr << label(cmd) << ": unknown flag --" << key << "\n\n"
                << usage(cmd);
      return 2;
    }
    if (spec->type == ArgType::Flag) {
      if (have_value && value != "true" && value != "1" && value != "false" &&
          value != "0") {
        std::cerr << label(cmd) << ": --" << key
                  << " is a flag; got '=" << value << "'\n\n"
                  << usage(cmd);
        return 2;
      }
      if (!have_value || value == "true" || value == "1")
        kv.insert_or_assign(key, std::string("1"));
      continue;
    }
    if (!have_value) {
      if (i + 1 >= argc) {
        std::cerr << label(cmd) << ": --" << key
                  << " expects a value\n\n"
                  << usage(cmd);
        return 2;
      }
      value = argv[++i];
    }
    // Validate numeric values at parse time so typos fail before work
    // starts, with a message naming the flag.
    try {
      std::size_t pos = 0;
      if (spec->type == ArgType::Int) {
        (void)std::stoi(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
      } else if (spec->type == ArgType::Double) {
        (void)std::stod(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
      }
    } catch (const std::exception&) {
      std::cerr << label(cmd) << ": --" << key << " expects a"
                << (spec->type == ArgType::Int ? "n integer" : " number") << ", got '"
                << value << "'\n\n"
                << usage(cmd);
      return 2;
    }
    kv[key] = value;
  }

  return cmd.run(ParsedArgs(&specs, std::move(kv)));
}

}  // namespace dfv::cli
