CREATE TABLE Customer (
    cid INTEGER,
    name VARCHAR(255),
    email VARCHAR(255)
);
CREATE TABLE CustomerAddress (
    cid INTEGER,
    street VARCHAR(255),
    city VARCHAR(255),
    zip VARCHAR(255),
    country VARCHAR(255)
);
