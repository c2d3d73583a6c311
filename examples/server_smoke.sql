-- Exercised by scripts/server_smoke.sh (and usable by hand):
--   dune exec bin/mmdb_client.exe -- examples/server_smoke.sql
CREATE TABLE Department (Name string, Id int PRIMARY KEY);
INSERT INTO Department VALUES ('Toy', 459);
INSERT INTO Department VALUES ('Shoe', 409);
CREATE TABLE Employee (Name string, Id int PRIMARY KEY, Age int,
                       Dept ref Department);
INSERT INTO Employee VALUES ('Dave', 23, 24, 459);
INSERT INTO Employee VALUES ('Cindy', 22, 22, 409);
INSERT INTO Employee VALUES ('Hank', 77, 70, 409);
SELECT Name, Age FROM Employee WHERE Age > 21;
SELECT Employee.Name, Department.Name
  FROM Employee JOIN Department ON Dept = Id;
SELECT Dept, COUNT(*), AVG(Age) FROM Employee GROUP BY Dept;
BEGIN;
UPDATE Employee SET Age = 25 WHERE Id = 23;
COMMIT;
BEGIN;
DELETE FROM Employee WHERE Id = 77;
ROLLBACK;
-- outside BEGIN ... COMMIT each statement is its own transaction
UPDATE Employee SET Age = 23 WHERE Id = 22;
INSERT INTO Employee VALUES ('Temp', 90, 40, 459);
DELETE FROM Employee WHERE Id = 90;
SELECT Name, Age FROM Employee WHERE Age BETWEEN 20 AND 30;
SHOW TABLES;
