package core

// OracleAnswerBootstrap lends the gather-per-replicate bootstrap oracle
// to this directory's external tests, which hold the paths built on
// AnswerBootstrap (the sharded merge, the contract ladder's rung) to it.
var OracleAnswerBootstrap = oracleAnswerBootstrap
