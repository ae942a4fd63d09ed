#include "storage/state_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "common/serde.h"

namespace escape::storage {
namespace {

PersistentState sample_state() {
  PersistentState s;
  s.current_term = 17;
  s.voted_for = 3;
  s.config.priority = 5;
  s.config.timer_period = from_ms(2100);
  s.config.conf_clock = 44;
  return s;
}

TEST(MemoryStateStoreTest, LoadBeforeSaveIsEmpty) {
  MemoryStateStore store;
  EXPECT_FALSE(store.load().has_value());
}

TEST(MemoryStateStoreTest, SaveLoadRoundtrip) {
  MemoryStateStore store;
  store.save(sample_state());
  const auto loaded = store.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, sample_state());
  EXPECT_EQ(store.save_count(), 1u);
}

TEST(MemoryStateStoreTest, OverwriteKeepsLatest) {
  MemoryStateStore store;
  store.save(sample_state());
  auto s2 = sample_state();
  s2.current_term = 99;
  store.save(s2);
  EXPECT_EQ(store.load()->current_term, 99);
  EXPECT_EQ(store.save_count(), 2u);
}

class FileStateStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("escape_state_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
}

PersistentState newer_state() {
  auto s = sample_state();
  s.current_term = 18;
  s.voted_for = 2;
  s.config.conf_clock = 45;
  return s;
}

TEST_F(FileStateStoreTest, MissingFileLoadsEmpty) {
  FileStateStore store(path("state"));
  EXPECT_FALSE(store.load().has_value());
}

TEST_F(FileStateStoreTest, SaveLoadRoundtrip) {
  FileStateStore store(path("state"));
  store.save(sample_state());
  const auto loaded = store.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, sample_state());
}

TEST_F(FileStateStoreTest, SurvivesReopen) {
  {
    FileStateStore store(path("state"));
    store.save(sample_state());
  }
  FileStateStore reopened(path("state"));
  ASSERT_TRUE(reopened.load().has_value());
  EXPECT_EQ(*reopened.load(), sample_state());
}

TEST_F(FileStateStoreTest, CorruptFileTreatedAsAbsent) {
  FileStateStore store(path("state"));
  store.save(sample_state());
  {
    std::ofstream f(path("state"), std::ios::binary | std::ios::trunc);
    f << "garbage!";
  }
  EXPECT_FALSE(store.load().has_value());
}

TEST_F(FileStateStoreTest, FlippedByteDetectedByCrc) {
  FileStateStore store(path("state"));
  store.save(sample_state());
  // Flip one byte in the middle of the file.
  std::fstream f(path("state"), std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<long>(f.tellg());
  ASSERT_GT(size, 8);
  f.seekp(size / 2);
  char b;
  f.seekg(size / 2);
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(size / 2);
  f.write(&b, 1);
  f.close();
  EXPECT_FALSE(store.load().has_value());
}

TEST_F(FileStateStoreTest, RepeatedSavesKeepLatest) {
  FileStateStore store(path("state"));
  for (Term t = 1; t <= 20; ++t) {
    auto s = sample_state();
    s.current_term = t;
    store.save(s);
  }
  EXPECT_EQ(store.load()->current_term, 20);
}

TEST_F(FileStateStoreTest, TornNewerSlotLoadsTheOlderState) {
  FileStateStore store(path("state"));
  store.save(sample_state());
  const auto before = read_bytes(path("state"));
  store.save(newer_state());
  auto after = read_bytes(path("state"));
  ASSERT_EQ(before.size(), after.size()) << "saves write in place";

  // Tear the newer save: only the first half of the bytes it changed
  // reached the disk.
  std::size_t first = after.size();
  std::size_t last = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (after[i] != before[i]) {
      first = std::min(first, i);
      last = i;
    }
  }
  ASSERT_LT(first, after.size());
  for (std::size_t i = first + (last - first + 1) / 2; i <= last; ++i) after[i] = before[i];
  write_bytes(path("state"), after);

  ASSERT_TRUE(store.load().has_value());
  EXPECT_EQ(*store.load(), sample_state());
  FileStateStore reopened(path("state"));
  EXPECT_EQ(*reopened.load(), sample_state());
}

TEST_F(FileStateStoreTest, BothSlotsCorruptLoadsNothing) {
  FileStateStore store(path("state"));
  store.save(sample_state());
  store.save(newer_state());
  auto bytes = read_bytes(path("state"));
  ASSERT_EQ(bytes.size(), 8192u) << "two 4 KiB slots";
  // A payload byte of each slot (past its [crc u32][len u32] header).
  bytes[8] ^= 0x40;
  bytes[4096 + 8] ^= 0x40;
  write_bytes(path("state"), bytes);
  EXPECT_FALSE(store.load().has_value());
}

TEST_F(FileStateStoreTest, SingleRecordFileStillLoads) {
  // The earlier format: the whole file is one [crc u32][len u32][state]
  // record, replaced by tmp + fsync + rename.
  const auto legacy = sample_state();
  Encoder body;
  body.i64(legacy.current_term);
  body.u32(legacy.voted_for);
  body.i64(legacy.config.timer_period);
  body.i32(legacy.config.priority);
  body.i64(legacy.config.conf_clock);
  const auto payload = body.take();
  Encoder framed;
  framed.u32(crc32(payload));
  framed.bytes(payload);
  write_bytes(path("state"), framed.take());

  FileStateStore store(path("state"));
  ASSERT_TRUE(store.load().has_value());
  EXPECT_EQ(*store.load(), legacy);
  store.save(newer_state());
  FileStateStore reopened(path("state"));
  EXPECT_EQ(*reopened.load(), newer_state());
}

TEST_F(FileStateStoreTest, LastOfAThousandAlternatingSavesReloads) {
  {
    FileStateStore store(path("state"));
    for (Term t = 1; t <= 1000; ++t) {
      auto s = sample_state();
      s.current_term = t;
      s.voted_for = static_cast<ServerId>(t % 3 + 1);
      store.save(s);
    }
  }
  EXPECT_EQ(std::filesystem::file_size(path("state")), 8192u);
  FileStateStore reopened(path("state"));
  const auto loaded = reopened.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->current_term, 1000);
  EXPECT_EQ(loaded->voted_for, 1000 % 3 + 1u);
}

}  // namespace
}  // namespace escape::storage
