#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/binary_io.h"
#include "core/engine.h"
#include "data/datasets.h"
#include "eval/metrics.h"

namespace grimp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- Binary I/O primitives ---------------------------------------------------

TEST(BinaryIoTest, PodRoundTrip) {
  const std::string path = TempPath("grimp_pod.bin");
  {
    BinaryWriter writer(path);
    writer.WriteU32(7u);
    writer.WriteI32(-3);
    writer.WriteI64(int64_t{1} << 40);
    writer.WriteU64(0xdeadbeefcafef00dULL);
    writer.WriteF32(1.5f);
    writer.WriteF64(-2.25);
    writer.WriteBool(true);
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader(path);
  EXPECT_EQ(*reader.ReadU32(), 7u);
  EXPECT_EQ(*reader.ReadI32(), -3);
  EXPECT_EQ(*reader.ReadI64(), int64_t{1} << 40);
  EXPECT_EQ(*reader.ReadU64(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(*reader.ReadF32(), 1.5f);
  EXPECT_EQ(*reader.ReadF64(), -2.25);
  EXPECT_TRUE(*reader.ReadBool());
}

TEST(BinaryIoTest, StringAndVectorRoundTrip) {
  const std::string path = TempPath("grimp_vec.bin");
  const std::vector<float> floats{1.0f, -2.0f, 0.5f};
  const std::vector<double> doubles{3.14, -1e10};
  const std::vector<int64_t> ints{1, -2, 3};
  const std::vector<std::string> strings{"", "abc", "with \n newline"};
  {
    BinaryWriter writer(path);
    writer.WriteString("hello");
    writer.WriteF32Vector(floats);
    writer.WriteF64Vector(doubles);
    writer.WriteI64Vector(ints);
    writer.WriteStringVector(strings);
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader(path);
  EXPECT_EQ(*reader.ReadString(), "hello");
  EXPECT_EQ(*reader.ReadF32Vector(), floats);
  EXPECT_EQ(*reader.ReadF64Vector(), doubles);
  EXPECT_EQ(*reader.ReadI64Vector(), ints);
  EXPECT_EQ(*reader.ReadStringVector(), strings);
}

TEST(BinaryIoTest, TruncatedFileFailsGracefully) {
  const std::string path = TempPath("grimp_trunc.bin");
  {
    BinaryWriter writer(path);
    writer.WriteU64(1000);  // promises 1000 bytes of string
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader(path);
  EXPECT_FALSE(reader.ReadString().ok());
}

TEST(BinaryIoTest, MissingFileFails) {
  BinaryReader reader("/nonexistent/grimp.bin");
  EXPECT_FALSE(reader.status().ok());
  EXPECT_FALSE(reader.ReadU32().ok());
}

TEST(BinaryIoTest, CorruptLengthRejected) {
  const std::string path = TempPath("grimp_huge.bin");
  {
    BinaryWriter writer(path);
    writer.WriteU64(uint64_t{1} << 60);  // absurd element count
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader(path);
  EXPECT_FALSE(reader.ReadF32Vector().ok());
}

// --- Model persistence ---------------------------------------------------------

TEST(ModelPersistenceTest, SaveLoadTransformIsIdentical) {
  auto clean = GenerateDatasetByName("mammogram", 5, 120);
  ASSERT_TRUE(clean.ok());
  const CorruptedTable corrupted = InjectMcar(*clean, 0.25, 3);

  GrimpOptions options;
  options.dim = 16;
  options.max_epochs = 30;
  GrimpEngine engine(options);
  ASSERT_TRUE(engine.Fit(corrupted.dirty).ok());
  auto direct = engine.Transform(corrupted.dirty);
  ASSERT_TRUE(direct.ok());

  const std::string path = TempPath("grimp_model.bin");
  ASSERT_TRUE(engine.Save(path).ok());

  auto loaded_or = GrimpEngine::Load(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  GrimpEngine& loaded = **loaded_or;
  EXPECT_TRUE(loaded.fitted());
  EXPECT_EQ(loaded.options().dim, 16);

  auto from_disk = loaded.Transform(corrupted.dirty);
  ASSERT_TRUE(from_disk.ok()) << from_disk.status().ToString();
  for (int c = 0; c < direct->num_cols(); ++c) {
    for (int64_t r = 0; r < direct->num_rows(); ++r) {
      ASSERT_EQ(direct->column(c).StringAt(r),
                from_disk->column(c).StringAt(r))
          << "col " << c << " row " << r;
    }
  }
}

TEST(ModelPersistenceTest, SaveRequiresFittedEngine) {
  GrimpEngine engine{GrimpOptions{}};
  EXPECT_FALSE(engine.Save(TempPath("grimp_unfitted.bin")).ok());
}

TEST(ModelPersistenceTest, FitValidatesOptions) {
  auto clean = GenerateDatasetByName("mammogram", 5, 60);
  ASSERT_TRUE(clean.ok());
  GrimpOptions options;
  options.max_epochs = -3;
  GrimpEngine engine(options);
  const Status status = engine.Fit(*clean);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());
}

TEST(ModelPersistenceTest, LoadRejectsGarbage) {
  const std::string path = TempPath("grimp_garbage.bin");
  {
    BinaryWriter writer(path);
    writer.WriteU64(0x1234567812345678ULL);  // wrong magic
    ASSERT_TRUE(writer.Close().ok());
  }
  auto loaded = GrimpEngine::Load(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_FALSE(GrimpEngine::Load("/nonexistent/model.bin").ok());
}

// Saves a quickly-fitted model and returns its path.
std::string SaveTinyModel(const std::string& name) {
  auto clean = GenerateDatasetByName("mammogram", 5, 60);
  EXPECT_TRUE(clean.ok());
  GrimpOptions options;
  options.dim = 8;
  options.max_epochs = 8;
  GrimpEngine engine(options);
  EXPECT_TRUE(engine.Fit(*clean).ok());
  const std::string path = TempPath(name);
  EXPECT_TRUE(engine.Save(path).ok());
  return path;
}

TEST(ModelPersistenceTest, CorruptPayloadByteFailsChecksum) {
  const std::string path = SaveTinyModel("grimp_corrupt.bin");
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(0, std::ios::end);
    const auto size = static_cast<int64_t>(file.tellg());
    ASSERT_GT(size, 32);
    file.seekp(size / 2);  // past the header, before the footer
    char byte = 0;
    file.seekg(size / 2);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    file.seekp(size / 2);
    file.write(&byte, 1);
  }
  auto loaded = GrimpEngine::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().message().find("checksum mismatch in"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find(path), std::string::npos);
}

// Overwrites the int32 at byte `offset` of a saved model and rewrites the
// FNV-1a footer, so the file passes the checksum and only Load's field
// validation stands between the patched value and the model builder.
void PatchModelI32(const std::string& path, int64_t offset, int32_t value) {
  std::string bytes;
  {
    std::ifstream file(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(file),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(static_cast<int64_t>(bytes.size()), offset + 12);
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  const size_t payload = bytes.size() - sizeof(uint64_t);
  uint64_t hash = BinaryWriter::kFnvOffsetBasis;
  for (size_t i = 0; i < payload; ++i) {
    hash ^= static_cast<unsigned char>(bytes[i]);
    hash *= BinaryWriter::kFnvPrime;
  }
  std::memcpy(bytes.data() + payload, &hash, sizeof(hash));
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ModelPersistenceTest, LoadRejectsChecksumValidBadFields) {
  auto clean = GenerateDatasetByName("mammogram", 5, 60);
  ASSERT_TRUE(clean.ok());
  GrimpOptions options;
  options.dim = 8;
  options.max_epochs = 4;
  options.k_strategy = KStrategy::kWeakDiagonalFd;
  options.fds = {FunctionalDependency{{0}, 1}};
  GrimpEngine engine(options);
  ASSERT_TRUE(engine.Fit(*clean).ok());
  const std::string base = TempPath("grimp_patch_base.bin");
  ASSERT_TRUE(engine.Save(base).ok());
  ASSERT_TRUE(GrimpEngine::Load(base).ok());

  // Byte offsets in the v2 layout written by GrimpEngine::Save: magic u64,
  // version u32, then features, task_kind, k_strategy, dim, shared_hidden,
  // task_hidden, gnn_layers (i32 each), use_gnn (u32), neighbor_cap (i32),
  // seed u64, the FD list (count u64; per FD: lhs size u64, lhs i32s,
  // rhs i32), the field count u64, then per field: name (u64 length +
  // bytes) and type i32.
  const int64_t first_type_at =
      80 + 8 + 8 + static_cast<int64_t>(engine.schema().field(0).name.size());
  struct Patch {
    const char* field;
    int64_t offset;
    int32_t value;
  };
  const Patch patches[] = {
      {"features out of range", 12, 9},
      {"features not n-gram", 12,
       static_cast<int32_t>(FeatureInitKind::kEmbdi)},
      {"task_kind", 16, 5},
      {"k_strategy", 20, -1},
      {"dim negative", 24, -4},
      {"dim beyond the stored weights", 24, 1 << 30},
      {"shared_hidden", 28, 0},
      {"gnn_layers", 36, 0},
      {"FD lhs column", 72, 99},
      {"FD rhs column", 76, -3},
      {"field type", first_type_at, 7},
  };
  for (const Patch& patch : patches) {
    SCOPED_TRACE(patch.field);
    const std::string path = TempPath("grimp_patched.bin");
    std::filesystem::copy_file(base, path,
                               std::filesystem::copy_options::overwrite_existing);
    PatchModelI32(path, patch.offset, patch.value);
    ASSERT_TRUE(VerifyTrailingChecksum(path).ok());
    auto loaded = GrimpEngine::Load(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsInvalidArgument())
        << loaded.status().ToString();
  }
}

TEST(ModelPersistenceTest, TruncatedModelFileFails) {
  const std::string path = SaveTinyModel("grimp_truncated_model.bin");
  std::string payload;
  {
    std::ifstream file(path, std::ios::binary);
    payload.assign(std::istreambuf_iterator<char>(file),
                   std::istreambuf_iterator<char>());
  }
  ASSERT_GT(payload.size(), 64u);
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(payload.data(), static_cast<int64_t>(payload.size() / 2));
  }
  auto loaded = GrimpEngine::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(path), std::string::npos)
      << loaded.status().ToString();
}

TEST(ModelPersistenceTest, WrongVersionNamesExpectedAndFound) {
  const std::string path = TempPath("grimp_future_version.bin");
  {
    BinaryWriter writer(path);
    writer.WriteU64(0x4752494d504d444cULL);  // "GRIMPMDL", matches Save()
    writer.WriteU32(99);                     // from a future format
    ASSERT_TRUE(writer.Close().ok());
  }
  auto loaded = GrimpEngine::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  const Status status = loaded.status();  // status() returns by value
  const std::string& message = status.message();
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("expected 2"), std::string::npos) << message;
  EXPECT_NE(message.find("found 99"), std::string::npos) << message;
}

TEST(ModelPersistenceTest, LoadedModelTransformsUnseenTable) {
  // Fit + save on one slice; load and impute a disjoint slice.
  auto all = GenerateDatasetByName("contraceptive", 9, 240);
  ASSERT_TRUE(all.ok());
  const CsvData csv = all->ToCsv();
  Table source(all->schema());
  Table target(all->schema());
  for (int64_t r = 0; r < all->num_rows(); ++r) {
    ASSERT_TRUE((r < 160 ? source : target)
                    .AppendRow(csv.rows[static_cast<size_t>(r)])
                    .ok());
  }
  GrimpOptions options;
  options.dim = 16;
  options.max_epochs = 40;
  GrimpEngine engine(options);
  ASSERT_TRUE(engine.Fit(source).ok());
  const std::string path = TempPath("grimp_transfer_model.bin");
  ASSERT_TRUE(engine.Save(path).ok());

  const CorruptedTable corrupted = InjectMcar(target, 0.25, 7);
  auto loaded = GrimpEngine::Load(path);
  ASSERT_TRUE(loaded.ok());
  auto imputed = (*loaded)->Transform(corrupted.dirty);
  ASSERT_TRUE(imputed.ok());
  const ImputationScore score = ScoreImputation(*imputed, corrupted, target);
  // Better than uniform guessing over 2-4-value domains.
  EXPECT_GT(score.Accuracy(), 0.45);
}

}  // namespace
}  // namespace grimp
